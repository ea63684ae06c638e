//! Correctness gates. A computed `(gram, cf)` multiset must equal the
//! single-machine reference (`ngrams::suffix_sort_counts`) on the same
//! corpus, and every served answer must equal the reference count, with
//! absent grams coming back absent. A mismatch fails the run.

use ngrams::Gram;
use std::sync::Arc;

/// Compare a computed result with the reference; both sorted by gram.
pub fn check_counts(got: &[(Gram, u64)], want: &[(Gram, u64)]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let i = got.iter().zip(want).take_while(|(g, w)| g == w).count();
    let show = |e: Option<&(Gram, u64)>| match e {
        Some((g, c)) => format!("{:?}={c}", g.terms()),
        None => "end of list".to_string(),
    };
    Err(format!(
        "{} grams computed, {} expected; first difference at #{i}: got {}, expected {}",
        got.len(),
        want.len(),
        show(got.get(i)),
        show(want.get(i)),
    ))
}

/// `(gram text, count)` rows, in answer order.
pub type Rows = Arc<Vec<(String, u64)>>;

/// What a query must answer.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A point lookup: the count, or absent.
    Count(Option<u64>),
    /// A prefix scan or top-k: exactly these rows, in this order.
    Rows(Rows),
}

/// Check an in-process point lookup.
pub fn check_lookup(got: Option<u64>, expect: &Expect) -> Result<(), String> {
    match expect {
        Expect::Count(want) if *want == got => Ok(()),
        _ => Err(format!("lookup answered {got:?}, expected {expect:?}")),
    }
}

/// Check an in-process prefix or top-k answer.
pub fn check_rows(got: &[(String, u64)], expect: &Expect) -> Result<(), String> {
    match expect {
        Expect::Rows(want) if want.as_slice() == got => Ok(()),
        _ => Err(format!(
            "{} rows answered, expected {expect:.200?}",
            got.len()
        )),
    }
}

/// Check the JSON body of a `200` HTTP answer.
pub fn check_body(body: &str, expect: &Expect) -> Result<(), String> {
    let bad = || format!("body {body:.200} does not answer {expect:.200?}");
    match expect {
        Expect::Count(_) => {
            let found = value_after(body, "found").ok_or_else(bad)?;
            let count = number(value_after(body, "count").ok_or_else(bad)?).ok_or_else(bad)?;
            let got = if found.starts_with("true") {
                Some(count)
            } else if found.starts_with("false") {
                None
            } else {
                return Err(bad());
            };
            check_lookup(got, expect).map_err(|e| format!("{e}: {}", bad()))
        }
        Expect::Rows(_) => {
            let rows = parse_rows(body).ok_or_else(bad)?;
            check_rows(&rows, expect).map_err(|_| bad())
        }
    }
}

/// The text following `"key"` and its colon, whitespace skipped.
fn value_after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let at = s.find(&format!("\"{key}\""))?;
    let rest = s[at + key.len() + 2..].trim_start().strip_prefix(':')?;
    Some(rest.trim_start())
}

fn number(s: &str) -> Option<u64> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

/// The `(gram, count)` rows of a prefix or top-k body, in order. Grams
/// are lexicon words, which never need JSON escapes.
fn parse_rows(body: &str) -> Option<Vec<(String, u64)>> {
    let mut rest = value_after(body, "results")?.strip_prefix('[')?;
    let mut rows = Vec::new();
    while let Some(v) = value_after(rest, "gram") {
        let v = v.strip_prefix('"')?;
        let end = v.find('"')?;
        let gram = v[..end].to_string();
        let c = value_after(&v[end..], "count")?;
        rows.push((gram, number(c)?));
        rest = c;
    }
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> Vec<(Gram, u64)> {
        vec![
            (Gram(vec![1]), 9),
            (Gram(vec![1, 2]), 6),
            (Gram(vec![2]), 7),
        ]
    }

    #[test]
    fn equal_counts_pass() {
        assert_eq!(check_counts(&counts(), &counts()), Ok(()));
    }

    #[test]
    fn one_perturbed_count_trips_the_gate() {
        let mut got = counts();
        got[1].1 += 1;
        let err = check_counts(&got, &counts()).unwrap_err();
        assert!(err.contains("#1"), "{err}");
    }

    #[test]
    fn a_missing_or_extra_gram_trips_the_gate() {
        let want = counts();
        assert!(check_counts(&want[..2], &want).is_err());
        let mut extra = want.clone();
        extra.push((Gram(vec![3]), 5));
        assert!(check_counts(&extra, &want).is_err());
    }

    #[test]
    fn the_gate_passes_a_real_job_and_trips_on_one_perturbed_count() {
        use corpus::{generate, CorpusProfile};
        use ngrams::{prepare_input, suffix_sort_counts, Computation, Method, NGramParams};
        let coll = generate(&CorpusProfile::tiny("gate", 40), 3);
        let cluster = mapreduce::Cluster::new(2);
        let got = Computation::new(Method::SuffixSigma, &NGramParams::new(3, 5))
            .input(&coll)
            .run(&cluster)
            .expect("job runs")
            .grams;
        let mut want = suffix_sort_counts(&prepare_input(&coll, 3, false), 3, 5);
        want.sort();
        assert!(!want.is_empty());
        assert_eq!(check_counts(&got, &want), Ok(()));
        let mut perturbed = got.clone();
        let mid = perturbed.len() / 2;
        perturbed[mid].1 += 1;
        assert!(check_counts(&perturbed, &want).is_err());
    }

    #[test]
    fn served_counts_are_checked() {
        let body = r#"{"q":"ba ce","count":6,"found":true}"#;
        assert_eq!(check_body(body, &Expect::Count(Some(6))), Ok(()));
        assert!(check_body(body, &Expect::Count(Some(7))).is_err());
        assert!(check_body(body, &Expect::Count(None)).is_err());
        let absent = r#"{"q":"ba zo","count":0,"found":false}"#;
        assert_eq!(check_body(absent, &Expect::Count(None)), Ok(()));
        assert!(check_body(absent, &Expect::Count(Some(0))).is_err());
    }

    #[test]
    fn served_rows_are_checked_in_order() {
        let body = r#"{"k":2,"returned":2,"results":[{"gram":"ba","count":9},{"gram":"ba ce","count":6}]}"#;
        let rows = vec![("ba".to_string(), 9), ("ba ce".to_string(), 6)];
        assert_eq!(
            check_body(body, &Expect::Rows(Arc::new(rows.clone()))),
            Ok(())
        );
        let mut perturbed = rows.clone();
        perturbed[1].1 = 5;
        assert!(check_body(body, &Expect::Rows(Arc::new(perturbed))).is_err());
        let swapped = vec![rows[1].clone(), rows[0].clone()];
        assert!(check_body(body, &Expect::Rows(Arc::new(swapped))).is_err());
        assert!(check_body(r#"{"results":[]}"#, &Expect::Rows(Arc::new(rows))).is_err());
    }
}
