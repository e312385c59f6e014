//! Persistent content-addressed evaluation store.
//!
//! The explorer's memo cache keys evaluations on **canonical spec JSON** —
//! a perfect content address, but one that dies with the process. This
//! crate makes it durable: an on-disk store mapping canonical
//! [`ExperimentSpec`](../edc_core/experiment/struct.ExperimentSpec.html)
//! JSON to the run's `SystemReport` JSON, objective scores, and cost
//! accounting, so sweeps, searches, and fleets warm-start across
//! processes.
//!
//! # Layout
//!
//! A store is a directory of [`SHARDS`] append-only JSON-lines files
//! (`shard-0.jsonl` … ). Each file opens with a schema-versioned header
//! (the `bench`/`schema` envelope convention from edc-bench):
//!
//! ```text
//! {"store":"edc-store","schema":1,"shard":0,"shards":4}
//! {"hash":"…16 hex…","spec":{…},"report":{…},"scores":{…},"cost":…,"check":"…16 hex…"}
//! ```
//!
//! Records are addressed by the FNV-1a hash of the canonical spec text
//! (the [`SpecKey`]) and carry the full spec for collision verification; `check` is an
//! FNV-1a checksum over the record bytes. Loading verifies both, and
//! every corruption mode — truncation, flipped bytes, unknown schema,
//! conflicting duplicates — surfaces as a typed [`StoreError`], never a
//! panic. [`Store::compact`] rewrites shards in sorted key order, so two
//! stores built from the same runs **in any order** serialize
//! byte-identically.
//!
//! ```
//! use edc_core::experiment::SpecKey;
//! use edc_core::json::Json;
//! use std::collections::BTreeMap;
//!
//! let dir = std::env::temp_dir().join("edc-store-doc-crate");
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut store = edc_store::Store::open(&dir).unwrap();
//!
//! let spec = Json::parse(r#"{"strategy":{"kind":"Fixed"},"timestep_s":0.001}"#).unwrap();
//! let report = Json::parse(r#"{"outcome":"Completed"}"#).unwrap();
//! let mut scores = BTreeMap::new();
//! scores.insert("completion_s".to_string(), 1.5);
//! store.put(&spec, report, scores, 1.0).unwrap();
//!
//! // Re-open: the entry survives the process.
//! let store = edc_store::Store::open(&dir).unwrap();
//! let hit = store.get(&SpecKey::from(&spec)).unwrap();
//! assert_eq!(hit.scores["completion_s"], 1.5);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// FNV-1a hash of a canonical spec (or record) text — the store's
/// content address and record checksum; `edc-core`'s one fold, re-exported.
///
/// ```
/// let h = edc_store::key_hash(r#"{"timestep_s":0.001}"#);
/// assert_eq!(h, edc_core::experiment::key_hash(r#"{"timestep_s":0.001}"#));
/// ```
pub use edc_core::experiment::key_hash;
use edc_core::experiment::SpecKey;
use edc_core::json::Json;

/// Version stamped into every shard header; bumped on format changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Number of shard files per store directory.
pub const SHARDS: u64 = 4;

/// Formats a hash as the 16-hex-digit form used in record files.
///
/// ```
/// assert_eq!(edc_store::hex16(0xdead_beef), "00000000deadbeef");
/// ```
pub fn hex16(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses the 16-hex-digit hash form; `None` on any other shape.
///
/// ```
/// assert_eq!(edc_store::parse_hex16("00000000deadbeef"), Some(0xdead_beef));
/// assert_eq!(edc_store::parse_hex16("beef"), None);
/// ```
pub fn parse_hex16(text: &str) -> Option<u64> {
    if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// Encodes an objective score for storage. Canonical JSON emits
/// non-finite numbers as `null`, so infinities (the lint prefilter's
/// "provably infeasible" score) are stored as strings.
///
/// ```
/// use edc_core::json::Json;
/// assert_eq!(edc_store::encode_score(2.5), Json::Num(2.5));
/// assert_eq!(edc_store::encode_score(f64::INFINITY), Json::Str("inf".into()));
/// ```
pub fn encode_score(score: f64) -> Json {
    if score.is_finite() {
        Json::Num(score)
    } else if score.is_nan() {
        Json::Str("nan".to_string())
    } else if score > 0.0 {
        Json::Str("inf".to_string())
    } else {
        Json::Str("-inf".to_string())
    }
}

/// Decodes a stored score; `None` for any other value shape.
///
/// ```
/// use edc_core::json::Json;
/// assert_eq!(edc_store::decode_score(&Json::Str("inf".into())), Some(f64::INFINITY));
/// assert_eq!(edc_store::decode_score(&Json::Uint(3)), Some(3.0));
/// assert_eq!(edc_store::decode_score(&Json::Null), None);
/// ```
pub fn decode_score(value: &Json) -> Option<f64> {
    match value {
        Json::Num(x) => Some(*x),
        Json::Uint(n) => Some(*n as f64),
        Json::Str(s) if s == "inf" => Some(f64::INFINITY),
        Json::Str(s) if s == "-inf" => Some(f64::NEG_INFINITY),
        Json::Str(s) if s == "nan" => Some(f64::NAN),
        _ => None,
    }
}

/// One stored evaluation: the canonical spec, its `SystemReport` JSON,
/// objective scores by name, and the cost (in full-fidelity-equivalent
/// cost units) the original run was billed.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// The canonical spec text and its hash — the content address.
    pub spec_json: SpecKey,
    /// The run's full `SystemReport` JSON.
    pub report: Json,
    /// Objective scores by objective name (sorted; may be sparse —
    /// entries written by sweeps carry no scores until a search
    /// resolves and merges them back).
    pub scores: BTreeMap<String, f64>,
    /// Cost units the producing run paid; store hits are billed zero.
    pub cost: f64,
}

impl StoreEntry {
    /// The entry's content-address hash.
    pub fn hash(&self) -> u64 {
        self.spec_json.hash()
    }
}

/// Typed store failures. Loading never panics: every corruption mode
/// maps to one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem operation failed.
    Io {
        /// Path involved.
        path: String,
        /// OS error text.
        message: String,
    },
    /// A line is not valid JSON or not a valid record shape.
    Parse {
        /// Shard file.
        path: String,
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A shard file does not end in a newline (or is empty): the last
    /// append was cut short.
    Truncated {
        /// Shard file.
        path: String,
    },
    /// The shard header names an unknown schema or wrong shard layout.
    Schema {
        /// Shard file.
        path: String,
        /// The offending header detail.
        found: String,
    },
    /// A record's stored hash does not match its spec bytes.
    HashMismatch {
        /// Shard file.
        path: String,
        /// 1-based line number.
        line: usize,
    },
    /// A record's checksum does not match its content (flipped byte).
    ChecksumMismatch {
        /// Shard file.
        path: String,
        /// 1-based line number.
        line: usize,
    },
    /// Two records for the same spec disagree on report bytes or on a
    /// shared score.
    Conflict {
        /// The 16-hex content hash of the conflicting key.
        key: String,
        /// Which field conflicted (`report` or `score:<name>`).
        field: String,
    },
    /// A score was NaN — scores must order, so NaN is rejected at both
    /// `put` and load.
    InvalidScore {
        /// The objective whose score was NaN.
        objective: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "store io error at {path}: {message}"),
            StoreError::Parse {
                path,
                line,
                message,
            } => write!(f, "store parse error at {path}:{line}: {message}"),
            StoreError::Truncated { path } => write!(f, "store shard truncated: {path}"),
            StoreError::Schema { path, found } => {
                write!(f, "store schema mismatch at {path}: {found}")
            }
            StoreError::HashMismatch { path, line } => {
                write!(f, "store hash mismatch at {path}:{line}")
            }
            StoreError::ChecksumMismatch { path, line } => {
                write!(f, "store checksum mismatch at {path}:{line}")
            }
            StoreError::Conflict { key, field } => {
                write!(f, "store conflict for key {key} on {field}")
            }
            StoreError::InvalidScore { objective } => {
                write!(f, "store rejected NaN score for objective {objective}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A thread-shareable store handle: the evaluator, sweep write-back,
/// and `edc_serve` connections all funnel through one mutex.
pub type StoreHandle = Arc<Mutex<Store>>;

/// The on-disk store: a directory of sharded append-only JSON logs,
/// fully verified and merged into memory on open.
///
/// ```
/// use edc_core::json::Json;
/// use std::collections::BTreeMap;
///
/// let dir = std::env::temp_dir().join("edc-store-doc-store");
/// let _ = std::fs::remove_dir_all(&dir);
/// let mut store = edc_store::Store::open(&dir).unwrap();
/// assert!(store.is_empty());
///
/// let spec = Json::parse(r#"{"timestep_s":0.001}"#).unwrap();
/// let appended = store
///     .put(&spec, Json::Null, BTreeMap::new(), 1.0)
///     .unwrap();
/// assert!(appended);
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    entries: Vec<StoreEntry>,
    index: HashMap<u64, Vec<usize>>,
}

impl Store {
    /// Opens (creating if needed) the store directory and loads every
    /// shard, verifying headers, checksums, and content hashes.
    ///
    /// # Errors
    ///
    /// Any I/O failure or corruption mode as a typed [`StoreError`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_error(&dir, &e))?;
        let mut store = Store {
            dir,
            entries: Vec::new(),
            index: HashMap::new(),
        };
        for shard in 0..SHARDS {
            store.load_shard(shard)?;
        }
        Ok(store)
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of distinct stored specs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no specs are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by its spec key. The hash index narrows the
    /// search; the full spec bytes verify the hit, so hash collisions can
    /// never alias two different designs.
    pub fn get(&self, key: &SpecKey) -> Option<&StoreEntry> {
        self.index
            .get(&key.hash())?
            .iter()
            .map(|&i| &self.entries[i])
            .find(|e| e.spec_json == *key)
    }

    /// All entries whose content hash matches (normally zero or one;
    /// more only under an FNV collision).
    pub fn get_by_hash(&self, hash: u64) -> Vec<&StoreEntry> {
        self.index
            .get(&hash)
            .map(|idxs| idxs.iter().map(|&i| &self.entries[i]).collect())
            .unwrap_or_default()
    }

    /// Entries in insertion (load) order.
    pub fn entries(&self) -> impl Iterator<Item = &StoreEntry> {
        self.entries.iter()
    }

    /// Entries in the deterministic compaction order: sorted by
    /// (hash, spec bytes) — stable across insertion orders.
    pub fn sorted_entries(&self) -> Vec<&StoreEntry> {
        let mut refs: Vec<&StoreEntry> = self.entries.iter().collect();
        refs.sort_by(|a, b| compaction_order(a, b));
        refs
    }

    /// Wraps the store in the shared [`StoreHandle`] the evaluator and
    /// serve loop expect.
    pub fn into_handle(self) -> StoreHandle {
        Arc::new(Mutex::new(self))
    }

    /// Inserts or merges an evaluation under `spec`'s key (a [`SpecKey`],
    /// or the spec's `&Json`, which builds it). New specs append a record; a
    /// repeat `put` merges scores (new names extend the entry, shared
    /// names must agree bitwise) and keeps the maximum cost, appending
    /// an updated record only when something changed. Returns whether
    /// a record was appended.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidScore`] for NaN scores,
    /// [`StoreError::Conflict`] when a duplicate disagrees on report
    /// bytes or a shared score, [`StoreError::Io`] on write failure.
    pub fn put(
        &mut self,
        spec: impl Into<SpecKey>,
        report: Json,
        scores: BTreeMap<String, f64>,
        cost: f64,
    ) -> Result<bool, StoreError> {
        for (name, score) in &scores {
            if score.is_nan() {
                return Err(StoreError::InvalidScore {
                    objective: name.clone(),
                });
            }
        }
        // Normalise the report through a parse→emit round trip so a live
        // value (e.g. `Num(2.0)`, emitted as `2`) compares equal to the
        // same record re-loaded from disk (parsed back as `Uint(2)`);
        // emitted JSON always re-parses, so the fallback is unreachable.
        let report = Json::parse(&report.to_string()).unwrap_or(Json::Null);
        let entry = StoreEntry {
            spec_json: spec.into(),
            report,
            scores,
            cost,
        };
        let hash = entry.hash();
        let (idx, changed) = self.merge(entry, false)?;
        if changed {
            let line = record_line(&self.entries[idx]);
            self.append(hash % SHARDS, &line)?;
        }
        Ok(changed)
    }

    /// Rewrites every shard with records sorted by (hash, spec bytes),
    /// dropping superseded duplicate records, so two stores holding the
    /// same entries serialize **byte-identically** regardless of the
    /// order the entries arrived in. Shards with no entries are
    /// removed. In-memory iteration order is re-sorted to match.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any write/rename failure.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let mut sorted: Vec<StoreEntry> = std::mem::take(&mut self.entries);
        sorted.sort_by(compaction_order);
        self.entries = sorted;
        self.index.clear();
        for (i, entry) in self.entries.iter().enumerate() {
            self.index.entry(entry.hash()).or_default().push(i);
        }
        for shard in 0..SHARDS {
            let path = self.shard_path(shard);
            let records: Vec<String> = self
                .entries
                .iter()
                .filter(|e| e.hash() % SHARDS == shard)
                .map(record_line)
                .collect();
            if records.is_empty() {
                match fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(io_error(&path, &e)),
                }
                continue;
            }
            let mut text = format!("{}\n", header_line(shard));
            for record in &records {
                text.push_str(record);
                text.push('\n');
            }
            let tmp = path.with_extension("jsonl.tmp");
            fs::write(&tmp, &text).map_err(|e| io_error(&tmp, &e))?;
            fs::rename(&tmp, &path).map_err(|e| io_error(&path, &e))?;
        }
        Ok(())
    }

    fn shard_path(&self, shard: u64) -> PathBuf {
        self.dir.join(format!("shard-{shard}.jsonl"))
    }

    /// Merges an entry into memory, enforcing the conflict rules.
    /// Returns the entry index and whether anything changed.
    fn merge(&mut self, entry: StoreEntry, from_disk: bool) -> Result<(usize, bool), StoreError> {
        let hash = entry.hash();
        let existing = self.index.get(&hash).and_then(|idxs| {
            idxs.iter()
                .copied()
                .find(|&i| self.entries[i].spec_json == entry.spec_json)
        });
        let Some(idx) = existing else {
            let idx = self.entries.len();
            self.entries.push(entry);
            self.index.entry(hash).or_default().push(idx);
            return Ok((idx, true));
        };
        let current = &mut self.entries[idx];
        if current.report != entry.report {
            return Err(StoreError::Conflict {
                key: hex16(hash),
                field: "report".to_string(),
            });
        }
        let mut changed = false;
        for (name, score) in entry.scores {
            match current.scores.get(&name) {
                Some(old) if old.to_bits() != score.to_bits() => {
                    return Err(StoreError::Conflict {
                        key: hex16(hash),
                        field: format!("score:{name}"),
                    });
                }
                Some(_) => {}
                None => {
                    if score.is_nan() {
                        return Err(StoreError::InvalidScore { objective: name });
                    }
                    current.scores.insert(name, score);
                    changed = true;
                }
            }
        }
        if entry.cost > current.cost {
            current.cost = entry.cost;
            changed = true;
        }
        // Records replayed from disk never need re-appending.
        Ok((idx, changed && !from_disk))
    }

    fn load_shard(&mut self, shard: u64) -> Result<(), StoreError> {
        let path = self.shard_path(shard);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(io_error(&path, &e)),
        };
        if text.is_empty() || !text.ends_with('\n') {
            return Err(StoreError::Truncated {
                path: path.display().to_string(),
            });
        }
        let mut lines = text.split('\n');
        let header = lines.next().unwrap_or_default();
        check_header(&path, header, shard)?;
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue; // the trailing split after the final newline
            }
            let lineno = i + 2;
            let entry = parse_record(&path, lineno, line, shard)?;
            self.merge(entry, true)?;
        }
        Ok(())
    }

    fn append(&mut self, shard: u64, line: &str) -> Result<(), StoreError> {
        let path = self.shard_path(shard);
        let fresh = !path.exists();
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_error(&path, &e))?;
        let mut text = String::new();
        if fresh {
            text.push_str(&header_line(shard));
            text.push('\n');
        }
        text.push_str(line);
        text.push('\n');
        file.write_all(text.as_bytes())
            .map_err(|e| io_error(&path, &e))
    }
}

/// The compaction order: by (hash, spec bytes).
fn compaction_order(a: &StoreEntry, b: &StoreEntry) -> std::cmp::Ordering {
    (a.hash(), &a.spec_json).cmp(&(b.hash(), &b.spec_json))
}

fn io_error(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn header_line(shard: u64) -> String {
    Json::obj(vec![
        ("store", Json::Str("edc-store".to_string())),
        ("schema", Json::Uint(SCHEMA_VERSION)),
        ("shard", Json::Uint(shard)),
        ("shards", Json::Uint(SHARDS)),
    ])
    .to_string()
}

fn check_header(path: &Path, header: &str, shard: u64) -> Result<(), StoreError> {
    let schema_err = |found: String| StoreError::Schema {
        path: path.display().to_string(),
        found,
    };
    let value = Json::parse(header).map_err(|e| StoreError::Parse {
        path: path.display().to_string(),
        line: 1,
        message: format!("bad header: {e}"),
    })?;
    if value.get("store") != Some(&Json::Str("edc-store".to_string())) {
        return Err(schema_err(format!(
            "store tag {}",
            value.get("store").cloned().unwrap_or(Json::Null)
        )));
    }
    match value.get("schema") {
        Some(Json::Uint(v)) if *v == SCHEMA_VERSION => {}
        other => {
            return Err(schema_err(format!(
                "schema {}",
                other.cloned().unwrap_or(Json::Null)
            )))
        }
    }
    if value.get("shard") != Some(&Json::Uint(shard))
        || value.get("shards") != Some(&Json::Uint(SHARDS))
    {
        return Err(schema_err("shard layout".to_string()));
    }
    Ok(())
}

/// Serialises an entry as its on-disk record line, checksum included.
fn record_line(entry: &StoreEntry) -> String {
    let spec = Json::parse(&entry.spec_json).unwrap_or(Json::Null);
    let scores = Json::Obj(
        entry
            .scores
            .iter()
            .map(|(k, v)| (k.clone(), encode_score(*v)))
            .collect(),
    );
    let body = Json::obj(vec![
        ("hash", Json::Str(hex16(entry.hash()))),
        ("spec", spec),
        ("report", entry.report.clone()),
        ("scores", scores),
        ("cost", Json::Num(entry.cost)),
    ]);
    let body_text = body.to_string();
    let check = hex16(key_hash(&body_text));
    debug_assert!(body_text.ends_with('}'));
    format!(
        "{},\"check\":{}}}",
        &body_text[..body_text.len() - 1],
        Json::Str(check)
    )
}

fn parse_record(
    path: &Path,
    line: usize,
    text: &str,
    shard: u64,
) -> Result<StoreEntry, StoreError> {
    let path_s = path.display().to_string();
    let bad = |message: String| StoreError::Parse {
        path: path_s.clone(),
        line,
        message,
    };
    let value = Json::parse(text).map_err(|e| bad(e.to_string()))?;
    let Json::Obj(pairs) = value else {
        return Err(bad("record is not an object".to_string()));
    };
    // Verify the checksum over the record re-emitted without `check`.
    let mut check = None;
    let mut body_pairs = Vec::with_capacity(pairs.len());
    for (k, v) in pairs {
        if k == "check" {
            match &v {
                Json::Str(s) => check = parse_hex16(s),
                _ => return Err(bad("check is not a string".to_string())),
            }
        } else {
            body_pairs.push((k, v));
        }
    }
    let Some(check) = check else {
        return Err(bad("missing check".to_string()));
    };
    let body = Json::Obj(body_pairs);
    if key_hash(&body.to_string()) != check {
        return Err(StoreError::ChecksumMismatch { path: path_s, line });
    }
    let hash = match body.get("hash") {
        Some(Json::Str(s)) => {
            parse_hex16(s).ok_or_else(|| bad("hash is not 16 hex digits".to_string()))?
        }
        _ => return Err(bad("missing hash".to_string())),
    };
    let spec_json = SpecKey::from(
        body.get("spec")
            .ok_or_else(|| bad("missing spec".to_string()))?,
    );
    if spec_json.hash() != hash {
        return Err(StoreError::HashMismatch { path: path_s, line });
    }
    if hash % SHARDS != shard {
        return Err(bad("record hashed to a different shard".to_string()));
    }
    let report = body
        .get("report")
        .ok_or_else(|| bad("missing report".to_string()))?
        .clone();
    let mut scores = BTreeMap::new();
    match body.get("scores") {
        Some(Json::Obj(pairs)) => {
            for (name, encoded) in pairs {
                let score =
                    decode_score(encoded).ok_or_else(|| bad(format!("bad score for {name}")))?;
                if score.is_nan() {
                    return Err(StoreError::InvalidScore {
                        objective: name.clone(),
                    });
                }
                scores.insert(name.clone(), score);
            }
        }
        _ => return Err(bad("missing scores".to_string())),
    }
    let cost = match body.get("cost") {
        Some(Json::Num(x)) if x.is_finite() && *x >= 0.0 => *x,
        Some(Json::Uint(n)) => *n as f64,
        _ => return Err(bad("missing or non-finite cost".to_string())),
    };
    Ok(StoreEntry {
        spec_json,
        report,
        scores,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("edc-store-unit-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(i: u64) -> Json {
        Json::obj(vec![
            ("design", Json::Uint(i)),
            ("timestep_s", Json::Num(0.001)),
        ])
    }

    fn scores_of(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn put_get_round_trip_across_reopen() {
        let dir = temp_dir("roundtrip");
        let mut store = Store::open(&dir).unwrap();
        for i in 0..10 {
            let appended = store
                .put(
                    &spec(i),
                    Json::obj(vec![("outcome", Json::Str("Completed".into()))]),
                    scores_of(&[("completion_s", i as f64 + 0.5)]),
                    2.0,
                )
                .unwrap();
            assert!(appended);
        }
        assert_eq!(store.len(), 10);
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 10);
        for i in 0..10 {
            let e = reopened.get(&SpecKey::from(&spec(i))).unwrap();
            assert_eq!(e.scores["completion_s"], i as f64 + 0.5);
            assert_eq!(e.cost, 2.0);
        }
        assert!(reopened.get(&SpecKey::from(&spec(99))).is_none());
    }

    #[test]
    fn infinite_scores_survive_storage() {
        let dir = temp_dir("inf");
        let mut store = Store::open(&dir).unwrap();
        store
            .put(
                &spec(0),
                Json::Null,
                scores_of(&[("completion_s", f64::INFINITY), ("neg", f64::NEG_INFINITY)]),
                0.0,
            )
            .unwrap();
        let reopened = Store::open(&dir).unwrap();
        let e = reopened.get(&SpecKey::from(&spec(0))).unwrap();
        assert_eq!(e.scores["completion_s"], f64::INFINITY);
        assert_eq!(e.scores["neg"], f64::NEG_INFINITY);
    }

    #[test]
    fn nan_scores_are_rejected() {
        let dir = temp_dir("nan");
        let mut store = Store::open(&dir).unwrap();
        let err = store
            .put(&spec(0), Json::Null, scores_of(&[("x", f64::NAN)]), 1.0)
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::InvalidScore {
                objective: "x".to_string()
            }
        );
    }

    #[test]
    fn duplicate_put_merges_scores_and_keeps_max_cost() {
        let dir = temp_dir("merge");
        let mut store = Store::open(&dir).unwrap();
        store
            .put(&spec(0), Json::Null, scores_of(&[("a", 1.0)]), 1.0)
            .unwrap();
        // Identical repeat: nothing to append.
        let appended = store
            .put(&spec(0), Json::Null, scores_of(&[("a", 1.0)]), 1.0)
            .unwrap();
        assert!(!appended);
        // New score name + larger cost: merged and re-appended.
        let appended = store
            .put(&spec(0), Json::Null, scores_of(&[("b", 2.0)]), 3.0)
            .unwrap();
        assert!(appended);
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        let e = reopened.get(&SpecKey::from(&spec(0))).unwrap();
        assert_eq!(e.scores, scores_of(&[("a", 1.0), ("b", 2.0)]));
        assert_eq!(e.cost, 3.0);
    }

    #[test]
    fn live_and_reloaded_reports_compare_equal() {
        // A live report carries Num(2.0), which emits as `2` and reloads
        // as Uint(2): the same run re-put after a reload must merge, not
        // conflict.
        let dir = temp_dir("canonical");
        let report = Json::obj(vec![("energy_j", Json::Num(2.0))]);
        let mut store = Store::open(&dir).unwrap();
        store
            .put(&spec(0), report.clone(), scores_of(&[]), 1.0)
            .unwrap();
        let mut reopened = Store::open(&dir).unwrap();
        let appended = reopened.put(&spec(0), report, scores_of(&[]), 1.0).unwrap();
        assert!(!appended, "identical repeat after reload is a no-op");
    }

    #[test]
    fn conflicting_put_is_typed() {
        let dir = temp_dir("conflict-put");
        let mut store = Store::open(&dir).unwrap();
        store
            .put(&spec(0), Json::Null, scores_of(&[("a", 1.0)]), 1.0)
            .unwrap();
        let report_conflict = store
            .put(&spec(0), Json::Bool(true), scores_of(&[]), 1.0)
            .unwrap_err();
        assert!(matches!(report_conflict, StoreError::Conflict { field, .. } if field == "report"));
        let score_conflict = store
            .put(&spec(0), Json::Null, scores_of(&[("a", 2.0)]), 1.0)
            .unwrap_err();
        assert!(matches!(score_conflict, StoreError::Conflict { field, .. } if field == "score:a"));
    }

    #[test]
    fn compaction_is_order_independent_and_byte_identical() {
        let dir_a = temp_dir("compact-a");
        let dir_b = temp_dir("compact-b");
        let mut a = Store::open(&dir_a).unwrap();
        let mut b = Store::open(&dir_b).unwrap();
        let n = 24;
        for i in 0..n {
            a.put(&spec(i), Json::Null, scores_of(&[("s", i as f64)]), 1.0)
                .unwrap();
        }
        for i in (0..n).rev() {
            b.put(&spec(i), Json::Null, scores_of(&[]), 1.0).unwrap();
            b.put(&spec(i), Json::Null, scores_of(&[("s", i as f64)]), 0.5)
                .unwrap();
        }
        a.compact().unwrap();
        b.compact().unwrap();
        let mut compared = 0;
        for shard in 0..SHARDS {
            let pa = dir_a.join(format!("shard-{shard}.jsonl"));
            let pb = dir_b.join(format!("shard-{shard}.jsonl"));
            assert_eq!(pa.exists(), pb.exists(), "shard {shard} presence");
            if pa.exists() {
                let ta = fs::read_to_string(&pa).unwrap();
                let tb = fs::read_to_string(&pb).unwrap();
                // Headers differ per shard index; bodies must match.
                assert_eq!(
                    ta.replace(&format!("\"shard\":{shard}"), "\"shard\":X"),
                    tb.replace(&format!("\"shard\":{shard}"), "\"shard\":X"),
                );
                assert_eq!(ta, tb, "shard {shard} bytes");
                compared += 1;
            }
        }
        assert!(compared > 0, "at least one shard exists");
        // Compacted stores reload cleanly and iterate in sorted order.
        let reopened = Store::open(&dir_a).unwrap();
        assert_eq!(reopened.len(), n as usize);
    }

    #[test]
    fn compaction_drops_superseded_duplicate_records() {
        let dir = temp_dir("compact-dedup");
        let mut store = Store::open(&dir).unwrap();
        store
            .put(&spec(0), Json::Null, scores_of(&[("a", 1.0)]), 1.0)
            .unwrap();
        store
            .put(&spec(0), Json::Null, scores_of(&[("b", 2.0)]), 1.0)
            .unwrap();
        store.compact().unwrap();
        let shard = key_hash(&spec(0).to_string()) % SHARDS;
        let text = fs::read_to_string(dir.join(format!("shard-{shard}.jsonl"))).unwrap();
        assert_eq!(text.lines().count(), 2, "header + one merged record");
        let merged = Store::open(&dir).unwrap();
        assert_eq!(
            merged.get(&SpecKey::from(&spec(0))).unwrap().scores,
            scores_of(&[("a", 1.0), ("b", 2.0)])
        );
    }

    #[test]
    fn empty_store_compacts_to_no_files() {
        let dir = temp_dir("compact-empty");
        let mut store = Store::open(&dir).unwrap();
        store.compact().unwrap();
        for shard in 0..SHARDS {
            assert!(!dir.join(format!("shard-{shard}.jsonl")).exists());
        }
    }

    #[test]
    fn sorted_entries_are_stable() {
        let dir = temp_dir("sorted");
        let mut store = Store::open(&dir).unwrap();
        for i in [5u64, 1, 9, 3] {
            store
                .put(&spec(i), Json::Null, scores_of(&[]), 1.0)
                .unwrap();
        }
        let order: Vec<u64> = store.sorted_entries().iter().map(|e| e.hash()).collect();
        let mut expect = order.clone();
        expect.sort_unstable();
        assert_eq!(order, expect);
    }

    #[test]
    fn hex16_round_trips() {
        for h in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(parse_hex16(&hex16(h)), Some(h));
        }
        assert_eq!(parse_hex16("not hex"), None);
        assert_eq!(parse_hex16("00000000deadbeefX"), None);
    }
}
