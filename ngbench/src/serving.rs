//! The query side: the reference answers, the seeded query stream, the
//! closed-loop HTTP load generator, and the in-process timings of the
//! same stream against `StatsIndex` and `SegmentReader`.
//!
//! The mix is 80% `/ngram`, 15% `/prefix`, 5% `/topk`. Point queries ask
//! for one of the [`HOT_GRAMS`] most frequent grams, or, with probability
//! [`ABSENT_SHARE`], for a gram the corpus does not hold at τ. Prefix
//! queries ask for the leading term of a hot gram. Present grams and
//! prefix terms are both drawn by rank from one Zipf law whose exponent
//! is the corpus profile's own `zipf_exponent`, so queries are as skewed
//! as the text they ask about.
//!
//! The warm-up looks up every hot gram once, so the timed loop starts
//! with the cache in its steady state: present grams hit, absent grams
//! miss and probe every segment. With a partly warm cache, first touches
//! in the Zipf tail kept the hit ratio climbing through the run, and
//! throughput rose by a third within one 14-second loop.
//!
//! The cache never evicts here. It charges only key and value bytes
//! (about 5 bytes a gram), so the default 4 MiB budget holds some 800k
//! grams, more than the whole key space of the served index; and a miss
//! costs up to 220 µs in process, so neither the warm-up nor a timed loop
//! of some 300k requests could fill it. The kvstore metrics therefore
//! measure hits and cached negatives, not eviction.

use crate::gate::{check_body, check_lookup, check_rows, Expect, Rows};
use crate::spans::{Span, Spans};
use corpus::Dictionary;
use ngrams::Gram;
use serve::{SegmentReader, StatsIndex};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Request classes, in the order latency samples are kept.
pub const CLASSES: [&str; 3] = ["ngram", "prefix", "topk"];
/// Span names of the HTTP requests, by class.
const HTTP_SPANS: [&str; 3] = ["GET ngram", "GET prefix", "GET topk"];
/// Share of `/ngram` queries that ask for an absent gram. An assumption:
/// no query log of this service exists to take it from.
pub const ABSENT_SHARE: f64 = 0.1;
/// Rows asked of `/prefix` and `/topk`.
const PREFIX_LIMIT: usize = 50;
const TOPK: usize = 10;
/// Point queries for present grams draw from this many top-ranked grams,
/// and prefix queries from their leading terms.
/// The warm-up looks each one up, and a cold lookup costs up to 220 µs, so
/// this bounds the warm-up to about 2 s of each set-up.
pub const HOT_GRAMS: usize = 8192;
/// Name the index is served under.
pub const INDEX_NAME: &str = "w";
/// A reply slower than this counts as timed out.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// The reference statistics and everything the query stream draws from.
pub struct Reference {
    /// `(gram, cf)`, sorted by gram: the gate's expected output.
    pub grams: Vec<(Gram, u64)>,
    dictionary: Dictionary,
    /// Indices into `grams` of the hot grams, most frequent first.
    hot: Vec<u32>,
    /// Rank skew of `hot`.
    hot_zipf: Zipf,
    /// Prefix terms (as text) with their expected rows, by the rank of
    /// the first gram they lead.
    prefixes: Vec<(String, Rows)>,
    /// Rank skew of `prefixes`.
    prefix_zipf: Zipf,
    topk: Rows,
}

fn key(g: &Gram) -> Vec<u8> {
    mapreduce::to_bytes(g)
}

/// A Zipf law over ranks `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)^exponent`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn rank(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

impl Reference {
    /// `grams` must be sorted by gram and non-empty; `skew` is the Zipf
    /// exponent of the query stream's rank skew.
    pub fn new(grams: Vec<(Gram, u64)>, dictionary: Dictionary, skew: f64) -> Reference {
        assert!(!grams.is_empty(), "reference holds no grams");
        // Index order: highest count first, ties by key bytes — the order
        // `/topk` answers in.
        let mut ranked: Vec<u32> = (0..grams.len() as u32).collect();
        let keys: Vec<Vec<u8>> = grams.iter().map(|(g, _)| key(g)).collect();
        ranked.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            grams[b]
                .1
                .cmp(&grams[a].1)
                .then_with(|| keys[a].cmp(&keys[b]))
        });
        let text = |i: usize| dictionary.decode(grams[i].0.terms());
        let topk = Arc::new(
            ranked
                .iter()
                .take(TOPK)
                .map(|&i| (text(i as usize), grams[i as usize].1))
                .collect(),
        );
        // A prefix scan answers the extensions of a term in key order.
        let mut prefixes = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &i in ranked.iter().take(HOT_GRAMS) {
            let first = grams[i as usize].0.terms()[0];
            if !seen.insert(first) {
                continue;
            }
            let start = grams.partition_point(|(g, _)| g.terms()[0] < first);
            let end = grams.partition_point(|(g, _)| g.terms()[0] <= first);
            let mut rows: Vec<usize> = (start..end).collect();
            rows.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
            rows.truncate(PREFIX_LIMIT);
            let rows = rows.into_iter().map(|r| (text(r), grams[r].1)).collect();
            prefixes.push((dictionary.decode(&[first]), Arc::new(rows)));
        }
        ranked.truncate(HOT_GRAMS);
        Reference {
            hot_zipf: Zipf::new(ranked.len(), skew),
            prefix_zipf: Zipf::new(prefixes.len(), skew),
            grams,
            dictionary,
            hot: ranked,
            prefixes,
            topk,
        }
    }

    /// Bytes the index cache would charge to hold every gram (key plus
    /// varint count), the measure of the key space against its budget.
    pub fn key_space_bytes(&self) -> usize {
        self.grams
            .iter()
            .map(|(g, c)| {
                let mut v = Vec::new();
                mapreduce::write_vu64(&mut v, *c);
                key(g).len() + v.len()
            })
            .sum()
    }

    fn count(&self, terms: &[u32]) -> Option<u64> {
        self.grams
            .binary_search_by(|(g, _)| g.terms().cmp(terms))
            .ok()
            .map(|i| self.grams[i].1)
    }
}

/// One query of the stream.
pub struct Query {
    /// Index into [`CLASSES`].
    pub class: usize,
    /// Gram text or prefix term (empty for top-k).
    pub text: String,
    pub expect: Expect,
}

impl Query {
    fn path(&self) -> String {
        match self.class {
            0 => format!("/v1/{INDEX_NAME}/ngram?q={}", self.text.replace(' ', "+")),
            1 => format!(
                "/v1/{INDEX_NAME}/prefix?q={}&limit={PREFIX_LIMIT}",
                self.text
            ),
            _ => format!("/v1/{INDEX_NAME}/topk?k={TOPK}"),
        }
    }
}

/// SplitMix64: the benchmark's own generator, so its inputs do not move
/// when the program's generators change.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// A deterministic query stream: the i-th query depends only on the seed.
pub struct QueryGen {
    reference: Arc<Reference>,
    rng: Rng,
}

impl QueryGen {
    pub fn new(reference: Arc<Reference>, seed: u64) -> QueryGen {
        QueryGen {
            reference,
            rng: Rng::new(seed),
        }
    }

    fn zipf_gram(&mut self) -> usize {
        let r = &self.reference;
        r.hot[r.hot_zipf.rank(&mut self.rng)] as usize
    }

    /// A gram near a popular one whose last term is swapped for a random
    /// vocabulary term, redrawn until the reference does not hold it.
    fn absent_gram(&mut self) -> Vec<u32> {
        let vocab = self.reference.dictionary.len();
        loop {
            let i = self.zipf_gram();
            let mut terms = self.reference.grams[i].0.terms().to_vec();
            *terms.last_mut().expect("grams are non-empty") = self.rng.below(vocab) as u32;
            if self.reference.count(&terms).is_none() {
                return terms;
            }
        }
    }

    pub fn next_query(&mut self) -> Query {
        let roll = self.rng.below(100);
        let r = Arc::clone(&self.reference);
        if roll < 80 {
            let (terms, expect) = if self.rng.unit() < ABSENT_SHARE {
                (self.absent_gram(), None)
            } else {
                let (g, c) = &r.grams[self.zipf_gram()];
                (g.terms().to_vec(), Some(*c))
            };
            Query {
                class: 0,
                text: r.dictionary.decode(&terms),
                expect: Expect::Count(expect),
            }
        } else if roll < 95 {
            let (text, rows) = &r.prefixes[r.prefix_zipf.rank(&mut self.rng)];
            Query {
                class: 1,
                text: text.clone(),
                expect: Expect::Rows(Arc::clone(rows)),
            }
        } else {
            Query {
                class: 2,
                text: String::new(),
                expect: Expect::Rows(Arc::clone(&r.topk)),
            }
        }
    }
}

/// Fill the index cache with an untimed pass: one lookup of every hot gram.
pub fn warm_up(index: &StatsIndex, reference: &Reference) -> Result<(), String> {
    for &i in &reference.hot {
        let (gram, count) = &reference.grams[i as usize];
        let text = reference.dictionary.decode(gram.terms());
        let got = index
            .lookup(&text)
            .map_err(|e| format!("warm-up lookup: {e}"))?;
        check_lookup(got, &Expect::Count(Some(*count)))?;
    }
    Ok(())
}

/// What the closed loop measured.
#[derive(Default)]
pub struct LoadResult {
    /// Raw per-request latencies in nanoseconds, by class; a failed
    /// request is recorded as `u64::MAX`, so it misses every limit.
    pub latency_ns: [Vec<u64>; 3],
    pub attempted: u64,
    pub failed: u64,
    /// Answers that disagreed with the reference (first few kept).
    pub mismatches: Vec<String>,
    pub mismatch_count: u64,
    pub wall: Duration,
    /// Completion offsets (ms since the loop started) of every request.
    pub done_ms: Vec<u32>,
}

impl LoadResult {
    pub fn all_sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.latency_ns.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Requests completed in each whole second of the loop.
    pub fn per_second(&self) -> Vec<u32> {
        let mut per = vec![0u32; self.wall.as_secs() as usize];
        for &ms in &self.done_ms {
            if let Some(c) = per.get_mut(ms as usize / 1000) {
                *c += 1;
            }
        }
        per
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// A keep-alive client connection with a buffered reader.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    body: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// `GET path`; returns the status, with the body left in `self.body`.
    fn get(&mut self, path: &str) -> std::io::Result<u16> {
        let request = format!("GET {path} HTTP/1.1\r\nhost: ngbench\r\n\r\n");
        self.writer.write_all(request.as_bytes())?;
        let broken =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(broken("connection closed before the status line"));
        }
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| broken("bad status line"))?;
        let mut length = None;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(broken("connection closed in the head"));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| broken("no content-length"))?;
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }
}

/// The query-stream seed of client `c`.
pub fn client_seed(seed: u64, c: usize) -> u64 {
    seed ^ ((c as u64 + 1) << 32)
}

/// Run `clients` keep-alive connections, each sending its next query only
/// after the previous reply (a closed loop), for `seconds`. Every answer
/// is checked against the reference.
pub fn closed_loop(
    addr: SocketAddr,
    reference: &Arc<Reference>,
    seed: u64,
    clients: usize,
    seconds: f64,
    spans: &Spans,
    parent: u64,
) -> LoadResult {
    let barrier = Barrier::new(clients + 1);
    let budget = Duration::from_secs_f64(seconds);
    let (mut results, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                let mut gen = QueryGen::new(Arc::clone(reference), client_seed(seed, c));
                scope.spawn(move || {
                    let mut out = LoadResult::default();
                    let mut local: Vec<Span> = Vec::new();
                    let mut client = Client::connect(addr);
                    barrier.wait();
                    let t0 = Instant::now();
                    let deadline = t0 + budget;
                    while Instant::now() < deadline {
                        let q = gen.next_query();
                        let path = q.path();
                        out.attempted += 1;
                        let start = Instant::now();
                        let reply = match client.as_mut() {
                            Ok(c) => c.get(&path),
                            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
                        };
                        let end = Instant::now();
                        out.done_ms.push((end - t0).as_millis() as u32);
                        if spans.enabled() {
                            local.push(spans.make(
                                spans.id(),
                                parent,
                                HTTP_SPANS[q.class],
                                start,
                                end,
                            ));
                        }
                        match reply {
                            Ok(200) => {
                                out.latency_ns[q.class].push((end - start).as_nanos() as u64);
                                let body = String::from_utf8_lossy(
                                    &client.as_ref().expect("answered").body,
                                );
                                if let Err(e) = check_body(&body, &q.expect) {
                                    out.mismatch_count += 1;
                                    if out.mismatches.len() < 3 {
                                        out.mismatches.push(format!("GET {path}: {e}"));
                                    }
                                }
                            }
                            // A refusal may close the connection: start afresh.
                            Ok(_) | Err(_) => {
                                out.failed += 1;
                                out.latency_ns[q.class].push(u64::MAX);
                                client = Client::connect(addr);
                            }
                        }
                    }
                    spans.extend(local);
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<LoadResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, start.elapsed())
    });
    let mut total = results.pop().unwrap_or_default();
    for r in results {
        for (t, l) in total.latency_ns.iter_mut().zip(r.latency_ns) {
            t.extend(l);
        }
        total.done_ms.extend(r.done_ms);
        total.attempted += r.attempted;
        total.failed += r.failed;
        total.mismatch_count += r.mismatch_count;
        total.mismatches.extend(r.mismatches);
    }
    total.wall = wall;
    total
}

/// In-process timings of one query stream, called on `StatsIndex` directly.
#[derive(Default)]
pub struct InProcess {
    pub hit_ns: Vec<u64>,
    pub miss_ns: Vec<u64>,
    pub prefix_ns: Vec<u64>,
    pub topk_ns: Vec<u64>,
    /// Point queries the cache missed, with their expected answers.
    pub miss_keys: Vec<(Vec<u32>, Expect)>,
}

/// Replay the first `n` queries of the stream seeded `seed` against
/// `index`, timing each call and classifying lookups by the cache.
pub fn in_process(
    index: &StatsIndex,
    reference: &Arc<Reference>,
    seed: u64,
    n: usize,
    spans: &Spans,
    parent: u64,
) -> Result<InProcess, String> {
    let mut gen = QueryGen::new(Arc::clone(reference), seed);
    let mut out = InProcess::default();
    let mut local = Vec::new();
    for _ in 0..n {
        let q = gen.next_query();
        let (hits_before, _) = index.cache_stats();
        let start = Instant::now();
        let name = match q.class {
            0 => {
                let got = index.lookup(&q.text).map_err(|e| format!("lookup: {e}"))?;
                check_lookup(got, &q.expect)?;
                "StatsIndex::lookup"
            }
            1 => {
                let rows = index
                    .prefix(&q.text, PREFIX_LIMIT)
                    .map_err(|e| format!("prefix: {e}"))?;
                check_rows(&rows, &q.expect)?;
                "StatsIndex::prefix"
            }
            _ => {
                let rows = index.topk(TOPK).map_err(|e| format!("topk: {e}"))?;
                check_rows(&rows, &q.expect)?;
                "StatsIndex::topk"
            }
        };
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        if spans.enabled() {
            local.push(spans.make(spans.id(), parent, name, start, end));
        }
        match q.class {
            0 if index.cache_stats().0 > hits_before => out.hit_ns.push(ns),
            0 => {
                out.miss_ns.push(ns);
                let terms: Vec<u32> = q
                    .text
                    .split(' ')
                    .map(|t| {
                        reference
                            .dictionary
                            .id(t)
                            .expect("stream terms are in the vocabulary")
                    })
                    .collect();
                out.miss_keys.push((terms, q.expect));
            }
            1 => out.prefix_ns.push(ns),
            _ => out.topk_ns.push(ns),
        }
    }
    spans.extend(local);
    Ok(out)
}

/// Time `SegmentReader::lookup` on every miss key, probing the index's
/// segments in order as the index does. Returns per-key nanoseconds.
pub fn segment_lookups(
    index_dir: &Path,
    keys: &[(Vec<u32>, Expect)],
    spans: &Spans,
    parent: u64,
) -> Result<Vec<u64>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(index_dir)
        .map_err(|e| format!("list {}: {e}", index_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    paths.sort();
    let readers = paths
        .iter()
        .map(|p| SegmentReader::open(p).map_err(|e| format!("open {}: {e}", p.display())))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Vec::with_capacity(keys.len());
    let mut local = Vec::new();
    for (terms, expect) in keys {
        let k = key(&Gram::new(terms));
        let start = Instant::now();
        let mut found = None;
        for r in &readers {
            found = r.lookup(&k).map_err(|e| format!("segment lookup: {e}"))?;
            if found.is_some() {
                break;
            }
        }
        let end = Instant::now();
        check_lookup(found, expect)?;
        if spans.enabled() {
            local.push(spans.make(spans.id(), parent, "SegmentReader::lookup", start, end));
        }
        out.push((end - start).as_nanos() as u64);
    }
    spans.extend(local);
    Ok(out)
}

/// The server's failure counters, read from its metric registry:
/// `(shed, timeouts, non-2xx responses)`.
pub fn server_failures(
    handle: &serve::ServerHandle,
    indexes: &HashMap<String, Arc<StatsIndex>>,
) -> (u64, u64, u64) {
    let text = handle.metrics().render_prometheus(indexes);
    let value = |prefix: &str| -> u64 {
        text.lines()
            .filter(|l| l.starts_with(prefix))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum()
    };
    let non_2xx = ["3xx", "4xx", "5xx"]
        .iter()
        .map(|c| value(&format!("http_responses_total{{class=\"{c}\"}}")))
        .sum();
    (
        value("http_shed_total"),
        value("http_request_timeouts_total"),
        non_2xx,
    )
}
