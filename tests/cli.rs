//! End-user tests of the `ngram-mr` CLI binary: generate a corpus, check
//! its stats, compute statistics in two modes, and validate the TSV
//! output against the library.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ngram-mr"))
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ngram-cli-{}-{name}", std::process::id()))
}

#[test]
fn generate_stats_compute_round_trip() {
    let corpus_path = temp_path("corpus.bin");
    let out_path = temp_path("out.tsv");

    // generate
    let status = bin()
        .args([
            "generate",
            "--profile",
            "tiny",
            "--scale",
            "1.0",
            "--seed",
            "5",
            "--out",
        ])
        .arg(&corpus_path)
        .status()
        .expect("run generate");
    assert!(status.success());

    // stats
    let output = bin()
        .args(["stats", "--input"])
        .arg(&corpus_path)
        .output()
        .expect("run stats");
    assert!(output.status.success());
    let stats = String::from_utf8_lossy(&output.stdout);
    assert!(stats.contains("# documents"), "stats output: {stats}");
    assert!(
        stats.contains("100"),
        "tiny profile at scale 1.0 has 100 docs"
    );

    // compute with decode, to a file
    let status = bin()
        .args([
            "compute",
            "--method",
            "suffix-sigma",
            "--tau",
            "3",
            "--sigma",
            "3",
            "--decode",
            "--input",
        ])
        .arg(&corpus_path)
        .args(["--out"])
        .arg(&out_path)
        .status()
        .expect("run compute");
    assert!(status.success());
    let tsv = std::fs::read_to_string(&out_path).expect("read tsv");
    let lines: Vec<&str> = tsv.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        let (count, gram) = line.split_once('\t').expect("tab-separated");
        assert!(count.parse::<u64>().expect("numeric count") >= 3);
        assert!(!gram.is_empty());
    }

    // The CLI result must equal the library result on the same corpus.
    let coll = corpus::load(&corpus_path).unwrap();
    let cluster = mapreduce::Cluster::new(2);
    let expected =
        ngrams::Computation::new(ngrams::Method::SuffixSigma, &ngrams::NGramParams::new(3, 3))
            .input(&coll)
            .run(&cluster)
            .unwrap();
    assert_eq!(lines.len(), expected.grams.len());

    // All four methods via CLI agree (spot-check record counts).
    for method in ["naive", "apriori-scan", "apriori-index"] {
        let output = bin()
            .args([
                "compute", "--method", method, "--tau", "3", "--sigma", "3", "--input",
            ])
            .arg(&corpus_path)
            .output()
            .expect("run compute");
        assert!(output.status.success(), "{method} failed");
        let n = String::from_utf8_lossy(&output.stdout).lines().count();
        assert_eq!(n, expected.grams.len(), "{method} output size differs");
    }

    // timeseries
    let output = bin()
        .args([
            "timeseries",
            "--tau",
            "5",
            "--sigma",
            "2",
            "--decode",
            "--input",
        ])
        .arg(&corpus_path)
        .output()
        .expect("run timeseries");
    assert!(output.status.success());
    let ts = String::from_utf8_lossy(&output.stdout);
    let first = ts.lines().next().expect("at least one series");
    // total \t gram \t year:count[,year:count…]
    let fields: Vec<&str> = first.split('\t').collect();
    assert_eq!(fields.len(), 3);
    assert!(fields[2].contains(':'));

    let _ = std::fs::remove_file(&corpus_path);
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn unknown_method_fails_with_usage() {
    let output = bin()
        .args(["compute", "--method", "bogus", "--input", "/nonexistent"])
        .output()
        .expect("run compute");
    assert!(!output.status.success());
}

#[test]
fn unknown_run_codec_error_names_every_codec() {
    let corpus_path = temp_path("codec-corpus.bin");
    let status = bin()
        .args([
            "generate",
            "--profile",
            "tiny",
            "--scale",
            "0.2",
            "--seed",
            "3",
        ])
        .arg("--out")
        .arg(&corpus_path)
        .status()
        .expect("run generate");
    assert!(status.success());
    let output = bin()
        .args(["compute", "--method", "naive", "--run-codec", "bogus"])
        .arg("--input")
        .arg(&corpus_path)
        .output()
        .expect("run compute");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(
        err.contains("expected plain, front, or posting-delta"),
        "stderr: {err}"
    );
    let _ = std::fs::remove_file(&corpus_path);
}

#[test]
fn missing_subcommand_fails() {
    let output = bin().output().expect("run bare");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("usage"), "stderr: {err}");
}

/// `--resume` binds to the input's content, not its path or size: a
/// legacy corpus rewritten at the same size (one term id changed) must
/// refuse the old manifest instead of splicing the old corpus's map
/// outputs into the new job.
#[test]
fn resume_refuses_input_rewritten_at_the_same_size() {
    let corpus_path = temp_path("resume-content.bin");
    let ckpt = temp_path("resume-content-ckpt");
    let out = temp_path("resume-content.tsv");
    let _ = std::fs::remove_dir_all(&ckpt);
    let status = bin()
        .args([
            "generate",
            "--profile",
            "tiny",
            "--scale",
            "1.0",
            "--seed",
            "5",
        ])
        .arg("--out")
        .arg(&corpus_path)
        .status()
        .expect("run generate");
    assert!(status.success());
    let compute = |resume: bool| {
        let mut cmd = bin();
        cmd.args(["compute", "--method", "suffix-sigma", "--tau", "1"])
            .args(["--sigma", "3", "--slots", "1", "--input"])
            .arg(&corpus_path)
            .arg("--checkpoint-dir")
            .arg(&ckpt)
            .arg("--out")
            .arg(&out);
        if resume {
            cmd.arg("--resume");
        }
        cmd.output().expect("run compute")
    };
    assert!(compute(false).status.success());
    // The blob's last byte is a term id: flipping its low bit keeps the
    // corpus loadable and the file the same length.
    let mut bytes = std::fs::read(&corpus_path).unwrap();
    let len = bytes.len();
    bytes[len - 1] ^= 1;
    std::fs::write(&corpus_path, &bytes).unwrap();
    let resumed = compute(true);
    assert!(
        !resumed.status.success(),
        "resume over rewritten input must fail"
    );
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        err.contains("checkpoint manifest does not match"),
        "stderr: {err}"
    );
    let _ = std::fs::remove_file(&corpus_path);
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir_all(&ckpt);
}
