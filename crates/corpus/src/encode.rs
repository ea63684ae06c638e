//! Binary persistence of collections: varbyte-encoded term-id sequences
//! with the dictionary, matching the paper's preprocessed representation
//! ("documents are spread as key-value pairs of 64-bit document identifier
//! and content integer array", §VII-B). Used by the bench harness to cache
//! generated corpora between runs.

use crate::dictionary::Dictionary;
use crate::document::Collection;
use crate::wire::{read_doc, read_str, write_doc, write_str};
use mapreduce::blockfile::StagedFile;
use mapreduce::{read_vu64_at, write_vu64};
use std::io::{self, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"NGRAMMR1";

/// Flush threshold for the streaming writers: the scratch buffer drains
/// to the underlying `BufWriter` once it grows past this.
const SAVE_CHUNK_BYTES: usize = 64 * 1024;

fn drain(buf: &mut Vec<u8>, out: &mut impl Write) -> io::Result<()> {
    out.write_all(buf)?;
    buf.clear();
    Ok(())
}

/// Serialize `coll` to `path`, streaming through a [`StagedFile`] — the
/// serialized corpus never exists in memory as one buffer (peak scratch
/// is one document past [`SAVE_CHUNK_BYTES`]), and appears at `path`
/// only once complete.
pub fn save(coll: &Collection, path: &Path) -> io::Result<()> {
    let mut f = StagedFile::create(path)?;
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    write_str(&mut buf, &coll.name);
    // Dictionary in id order.
    write_vu64(&mut buf, coll.dictionary.len() as u64);
    for (_, term, cf) in coll.dictionary.iter() {
        write_str(&mut buf, term);
        write_vu64(&mut buf, cf);
        if buf.len() >= SAVE_CHUNK_BYTES {
            drain(&mut buf, &mut f)?;
        }
    }
    // Documents.
    write_vu64(&mut buf, coll.docs.len() as u64);
    for d in &coll.docs {
        write_doc(&mut buf, d);
        if buf.len() >= SAVE_CHUNK_BYTES {
            drain(&mut buf, &mut f)?;
        }
    }
    drain(&mut buf, &mut f)?;
    f.commit().map(drop)
}

/// Load a collection previously written by [`save`].
pub fn load(path: &Path) -> io::Result<Collection> {
    let buf = std::fs::read(path)?;
    if buf.len() < 8 || &buf[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a corpus file (bad magic)",
        ));
    }
    let mut pos = 8usize;
    let name = read_str(&buf, &mut pos)?;
    let n_terms = read_vu64_at(&buf, &mut pos)? as usize;
    let mut counts = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        let term = read_str(&buf, &mut pos)?;
        let cf = read_vu64_at(&buf, &mut pos)?;
        counts.push((term, cf));
    }
    // Rebuilding through from_counts re-derives the same ranking (cf desc,
    // term asc) the dictionary was written in.
    let dictionary = Dictionary::from_counts(counts);
    let n_docs = read_vu64_at(&buf, &mut pos)? as usize;
    let mut docs = Vec::with_capacity(n_docs.min(buf.len()));
    for _ in 0..n_docs {
        docs.push(read_doc(&buf, &mut pos)?);
    }
    Ok(Collection {
        name,
        docs,
        dictionary,
    })
}

/// Save a collection the way the paper stores its preprocessed corpora
/// (§VII-B): "The term dictionary is kept as a single text file; documents
/// are spread as key-value pairs of 64-bit document identifier and content
/// integer array over a total of 256 binary files."
///
/// Layout under `dir`: `dictionary.txt` (`term \t cf` per line, id order),
/// `meta.txt`, and `docs-NNN.bin` shard files; document `d` lands in shard
/// `d.id % num_shards`.
pub fn save_sharded(coll: &Collection, dir: &Path, num_shards: usize) -> io::Result<()> {
    assert!(num_shards > 0, "need at least one shard");
    std::fs::create_dir_all(dir)?;
    // Dictionary as a text file, one term per line in id order.
    let mut dict = String::new();
    for (_, term, cf) in coll.dictionary.iter() {
        dict.push_str(term);
        dict.push('\t');
        dict.push_str(&cf.to_string());
        dict.push('\n');
    }
    std::fs::write(dir.join("dictionary.txt"), dict)?;
    std::fs::write(
        dir.join("meta.txt"),
        format!("name\t{}\nshards\t{}\n", coll.name, num_shards),
    )?;
    // Shard the documents: every shard streams through its own writer
    // with a small shared scratch buffer instead of accumulating all
    // shards in memory first.
    let mut shards: Vec<io::BufWriter<std::fs::File>> = (0..num_shards)
        .map(|i| {
            std::fs::File::create(dir.join(format!("docs-{i:03}.bin"))).map(io::BufWriter::new)
        })
        .collect::<io::Result<_>>()?;
    let mut buf = Vec::new();
    for d in &coll.docs {
        write_doc(&mut buf, d);
        drain(&mut buf, &mut shards[(d.id % num_shards as u64) as usize])?;
    }
    for mut shard in shards {
        shard.flush()?;
    }
    Ok(())
}

/// Load a collection written by [`save_sharded`]. Documents are restored
/// in ascending id order regardless of shard layout.
pub fn load_sharded(dir: &Path) -> io::Result<Collection> {
    let meta = std::fs::read_to_string(dir.join("meta.txt"))?;
    let mut name = String::new();
    let mut num_shards = 0usize;
    for line in meta.lines() {
        match line.split_once('\t') {
            Some(("name", v)) => name = v.to_string(),
            Some(("shards", v)) => {
                num_shards = v
                    .parse()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad shard count"))?
            }
            _ => {}
        }
    }
    if num_shards == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "meta.txt missing shard count",
        ));
    }
    let dict_text = std::fs::read_to_string(dir.join("dictionary.txt"))?;
    let mut counts = Vec::new();
    for line in dict_text.lines() {
        let (term, cf) = line
            .split_once('\t')
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad dictionary line"))?;
        let cf: u64 = cf
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad dictionary cf"))?;
        counts.push((term.to_string(), cf));
    }
    let dictionary = Dictionary::from_counts(counts);
    let mut docs = Vec::new();
    for i in 0..num_shards {
        let buf = std::fs::read(dir.join(format!("docs-{i:03}.bin")))?;
        let mut pos = 0usize;
        while pos < buf.len() {
            docs.push(read_doc(&buf, &mut pos)?);
        }
    }
    docs.sort_by_key(|d| d.id);
    Ok(Collection {
        name,
        docs,
        dictionary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::profile::CorpusProfile;

    fn temp_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("corpus-encode-{}-{}.bin", std::process::id(), name))
    }

    #[test]
    fn save_load_round_trip() {
        let coll = generate(&CorpusProfile::tiny("roundtrip", 30), 21);
        let path = temp_file("rt");
        save(&coll, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.name, coll.name);
        assert_eq!(loaded.docs, coll.docs);
        assert_eq!(loaded.dictionary.len(), coll.dictionary.len());
        for (id, term, cf) in coll.dictionary.iter() {
            assert_eq!(loaded.dictionary.term(id), Some(term));
            assert_eq!(loaded.dictionary.cf(id), cf);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_round_trip_restores_documents_in_order() {
        let coll = generate(&CorpusProfile::tiny("sharded", 40), 8);
        let dir =
            std::env::temp_dir().join(format!("corpus-shards-{}-{}", std::process::id(), line!()));
        let _ = std::fs::remove_dir_all(&dir);
        save_sharded(&coll, &dir, 7).unwrap();
        // Exactly 7 shard files plus dictionary and meta.
        let files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files.iter().filter(|f| f.starts_with("docs-")).count(), 7);
        assert!(files.contains(&"dictionary.txt".to_string()));

        let loaded = load_sharded(&dir).unwrap();
        assert_eq!(loaded.name, coll.name);
        assert_eq!(loaded.docs, coll.docs);
        assert_eq!(loaded.dictionary.len(), coll.dictionary.len());
        for (id, term, cf) in coll.dictionary.iter() {
            assert_eq!(loaded.dictionary.term(id), Some(term));
            assert_eq!(loaded.dictionary.cf(id), cf);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_load_rejects_missing_meta() {
        let dir = std::env::temp_dir().join(format!("corpus-shards-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_sharded(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = temp_file("bad");
        std::fs::write(&path, b"NOTACORP.....").unwrap();
        assert!(load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let coll = generate(&CorpusProfile::tiny("trunc", 10), 3);
        let path = temp_file("trunc");
        save(&coll, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
