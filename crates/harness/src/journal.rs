//! The durable JSONL job journal.
//!
//! One line per record, appended and flushed as each job finishes, so a
//! crash loses at most the line being written. The first line is a header
//! naming the command that produced the journal; every later line is one
//! job's outcome, keyed by the content digest of (benchmark, policy, seed,
//! config, fault plan) — see [`crate::supervisor::job_digest`]. On
//! `--resume`, completed jobs are decoded from their journaled value and
//! re-merged in enumeration order, so the resumed CSV is byte-identical to
//! an uninterrupted run.
//!
//! A torn tail — a partial last line from a crash mid-write — is discarded
//! with a warning and truncated from the file before appending resumes, so
//! a re-run record never concatenates onto the torn bytes; corruption
//! *before* the last line is a hard error, since it means the file is not
//! an append-crashed journal but something else.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};

use awg_sim::json::{self, Value};

/// Journal schema version; bump on incompatible record changes.
const JOURNAL_VERSION: u64 = 1;

/// How a journaled job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The job produced a value (stored in the record).
    Ok,
    /// The job's watchdog cancelled it (a typed `JobTimeout` row).
    Timeout,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Timeout => "timeout",
        }
    }

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "ok" => JobStatus::Ok,
            "timeout" => JobStatus::Timeout,
            other => return Err(format!("unknown job status {other:?}")),
        })
    }
}

/// One journaled job outcome.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// The job's stable key (human-readable; the digest is authoritative).
    pub key: String,
    /// Content digest of the job's full identity.
    pub digest: u64,
    /// Host wall-clock the job took, nanoseconds.
    pub wall_ns: u64,
    /// How the job ended.
    pub status: JobStatus,
    /// The job's serialized value (`status == Ok` only).
    pub value: Option<Value>,
    /// The terminal error's rendering (`status != Ok` only).
    pub error: Option<String>,
}

impl JournalRecord {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("v".to_owned(), Value::Num(JOURNAL_VERSION as f64)),
            ("key".to_owned(), Value::Str(self.key.clone())),
            (
                "digest".to_owned(),
                Value::Str(format!("{:#018x}", self.digest)),
            ),
            ("wall_ns".to_owned(), Value::Num(self.wall_ns as f64)),
            (
                "status".to_owned(),
                Value::Str(self.status.as_str().to_owned()),
            ),
        ];
        if let Some(value) = &self.value {
            fields.push(("value".to_owned(), value.clone()));
        }
        if let Some(error) = &self.error {
            fields.push(("error".to_owned(), Value::Str(error.clone())));
        }
        Value::Object(fields)
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let version = value
            .get("v")
            .and_then(Value::as_f64)
            .ok_or_else(|| "record has no version".to_owned())?;
        if version != JOURNAL_VERSION as f64 {
            return Err(format!("unsupported journal record version {version}"));
        }
        let key = value
            .get("key")
            .and_then(Value::as_str)
            .ok_or_else(|| "record has no key".to_owned())?
            .to_owned();
        let digest_text = value
            .get("digest")
            .and_then(Value::as_str)
            .ok_or_else(|| "record has no digest".to_owned())?;
        let digest = digest_text
            .strip_prefix("0x")
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or_else(|| format!("bad digest {digest_text:?}"))?;
        let wall_ns = value
            .get("wall_ns")
            .and_then(Value::as_f64)
            .ok_or_else(|| "record has no wall_ns".to_owned())? as u64;
        let status = JobStatus::from_str(
            value
                .get("status")
                .and_then(Value::as_str)
                .ok_or_else(|| "record has no status".to_owned())?,
        )?;
        let stored = value.get("value").cloned();
        if status == JobStatus::Ok && stored.is_none() {
            return Err(format!("ok record {key:?} carries no value"));
        }
        Ok(JournalRecord {
            key,
            digest,
            wall_ns,
            status,
            value: stored,
            error: value
                .get("error")
                .and_then(Value::as_str)
                .map(str::to_owned),
        })
    }
}

/// An open journal: an append-mode writer that flushes after every record.
#[derive(Debug)]
pub struct Journal {
    writer: BufWriter<File>,
    path: PathBuf,
}

/// What [`Journal::open_resume`] recovered from an existing journal file.
#[derive(Debug)]
pub struct ResumeState {
    /// The command line recorded in the header, if the header survived.
    pub command: Option<String>,
    /// Every fully-written record, in file order.
    pub records: Vec<JournalRecord>,
    /// Whether a torn last line was discarded.
    pub torn_tail: bool,
}

impl Journal {
    /// Creates (truncating) a journal at `path` and writes the header line.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn create(path: &Path, command: &str) -> std::io::Result<Journal> {
        let file = File::create(path)?;
        let mut journal = Journal {
            writer: BufWriter::new(file),
            path: path.to_owned(),
        };
        let header = Value::Object(vec![
            ("v".to_owned(), Value::Num(JOURNAL_VERSION as f64)),
            ("journal".to_owned(), Value::Str("awg-jobs".to_owned())),
            ("command".to_owned(), Value::Str(command.to_owned())),
        ]);
        journal.write_line(&header)?;
        Ok(journal)
    }

    /// Reads an existing journal for resume, then reopens it for appending.
    ///
    /// A torn (partial) last line is discarded with a warning on stderr and
    /// truncated off the file, so records appended by the resumed run start
    /// on a clean line instead of concatenating onto the torn bytes.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a missing/foreign header, or corruption before
    /// the last line.
    pub fn open_resume(path: &Path) -> std::io::Result<(Journal, ResumeState)> {
        let mut text = String::new();
        File::open(path)?.read_to_string(&mut text)?;
        let (state, retain) = parse_journal_text(&text).map_err(std::io::Error::other)?;
        if state.torn_tail {
            eprintln!(
                "warning: journal {} has a torn last line (crash mid-write); discarding it",
                path.display()
            );
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(retain as u64)?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((
            Journal {
                writer: BufWriter::new(file),
                path: path.to_owned(),
            },
            state,
        ))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to disk.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append(&mut self, record: &JournalRecord) -> std::io::Result<()> {
        self.write_line(&record.to_json())
    }

    fn write_line(&mut self, value: &Value) -> std::io::Result<()> {
        let mut line = value.to_json();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }
}

/// Parses journal text into its header and records, tolerating a torn
/// tail. Also returns the byte length of the intact prefix (header plus
/// every accepted record, newlines included), so the caller can truncate
/// torn bytes off the file before appending to it.
fn parse_journal_text(text: &str) -> Result<(ResumeState, usize), String> {
    // Lines are complete iff terminated by '\n'; split keeps the unfinished
    // tail (if any) as the last fragment. Each complete line carries the
    // byte offset just past its newline.
    let mut complete: Vec<(&str, usize)> = Vec::new();
    let mut tail: Option<&str> = None;
    let mut pos = 0usize;
    let mut rest = text;
    while let Some(nl) = rest.find('\n') {
        complete.push((&rest[..nl], pos + nl + 1));
        pos += nl + 1;
        rest = &rest[nl + 1..];
    }
    if !rest.is_empty() {
        tail = Some(rest);
    }
    // A complete-looking last line that fails to parse is also a torn write
    // (e.g. truncated mid-escape yet ending in '\n' is impossible, but a
    // crash can leave a line whose JSON is cut short with no newline — that
    // is the `tail` case — or partially flushed bytes; be lenient only at
    // the very end).
    let mut torn_tail = tail.is_some_and(|t| !t.trim().is_empty());
    if let Some(t) = tail {
        if let Ok(value) = json::parse(t.trim()) {
            // The final flush wrote a full record but the newline was lost;
            // accept it rather than re-running the job.
            if JournalRecord::from_json(&value).is_ok() {
                complete.push((t, text.len()));
                torn_tail = false;
            }
        }
    }

    let mut lines = complete
        .iter()
        .map(|&(l, end)| (l.trim(), end))
        .filter(|(l, _)| !l.is_empty())
        .peekable();
    let (header_line, header_end) = lines.next().ok_or("journal is empty")?;
    let header =
        json::parse(header_line).map_err(|e| format!("journal header is not JSON: {e}"))?;
    if header.get("journal").and_then(Value::as_str) != Some("awg-jobs") {
        return Err("not an awg job journal (bad header)".into());
    }
    let command = header
        .get("command")
        .and_then(Value::as_str)
        .map(str::to_owned);

    let mut records = Vec::new();
    let mut retain = header_end;
    while let Some((line, end)) = lines.next() {
        let is_last = lines.peek().is_none();
        let parsed = json::parse(line).and_then(|v| JournalRecord::from_json(&v));
        match parsed {
            Ok(record) => {
                records.push(record);
                retain = end;
            }
            Err(e) if is_last => {
                // The final complete line can still be a torn write when the
                // crash landed between the payload and its newline on a
                // previous run's partial flush.
                eprintln!("warning: discarding unreadable final journal record: {e}");
                torn_tail = true;
            }
            Err(e) => return Err(format!("corrupt journal record (not at tail): {e}")),
        }
    }
    Ok((
        ResumeState {
            command,
            records,
            torn_tail,
        },
        retain,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn record(key: &str, digest: u64) -> JournalRecord {
        JournalRecord {
            key: key.to_owned(),
            digest,
            wall_ns: 12_345,
            status: JobStatus::Ok,
            value: Some(Value::Array(vec![Value::Num(1.0)])),
            error: None,
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("awg-journal-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn create_append_resume_round_trip() {
        let path = temp_path("roundtrip");
        {
            let mut j = Journal::create(&path, "fig5 --quick").unwrap();
            j.append(&record("a", 0xAAAA_BBBB_CCCC_DDDD)).unwrap();
            j.append(&JournalRecord {
                status: JobStatus::Timeout,
                value: None,
                error: Some("job 'b' timed out".into()),
                ..record("b", 2)
            })
            .unwrap();
        }
        let (_j, state) = Journal::open_resume(&path).unwrap();
        assert_eq!(state.command.as_deref(), Some("fig5 --quick"));
        assert!(!state.torn_tail);
        assert_eq!(state.records.len(), 2);
        assert_eq!(state.records[0].key, "a");
        assert_eq!(state.records[0].digest, 0xAAAA_BBBB_CCCC_DDDD);
        assert_eq!(state.records[0].status, JobStatus::Ok);
        assert!(state.records[0].value.is_some());
        assert_eq!(state.records[1].status, JobStatus::Timeout);
        assert!(state.records[1].error.as_deref().unwrap().contains("b"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_appends_rather_than_truncating() {
        let path = temp_path("append");
        {
            let mut j = Journal::create(&path, "fig5").unwrap();
            j.append(&record("a", 1)).unwrap();
        }
        {
            let (mut j, state) = Journal::open_resume(&path).unwrap();
            assert_eq!(state.records.len(), 1);
            j.append(&record("b", 2)).unwrap();
        }
        let (_j, state) = Journal::open_resume(&path).unwrap();
        assert_eq!(state.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_with_survivors_kept() {
        let path = temp_path("torn");
        {
            let mut j = Journal::create(&path, "chaos").unwrap();
            j.append(&record("a", 1)).unwrap();
            j.append(&record("b", 2)).unwrap();
        }
        // Simulate a crash mid-write: chop the file mid-way through the
        // last record.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 17;
        std::fs::write(&path, &text[..keep]).unwrap();
        let (_j, state) = Journal::open_resume(&path).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.records.len(), 1);
        assert_eq!(state.records[0].key, "a");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn complete_record_missing_only_its_newline_is_kept() {
        let path = temp_path("nonewline");
        {
            let mut j = Journal::create(&path, "fig5").unwrap();
            j.append(&record("a", 1)).unwrap();
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        text.pop();
        std::fs::write(&path, &text).unwrap();
        let (_j, state) = Journal::open_resume(&path).unwrap();
        assert!(!state.torn_tail, "full record with no newline is not torn");
        assert_eq!(state.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let path = temp_path("corrupt");
        {
            let mut j = Journal::create(&path, "fig5").unwrap();
            j.append(&record("a", 1)).unwrap();
            j.append(&record("b", 2)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"key\":\"a\"", "\"key\":####", 1);
        std::fs::write(&path, corrupted).unwrap();
        assert!(Journal::open_resume(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let path = temp_path("foreign");
        std::fs::write(&path, "{\"not\":\"a journal\"}\n").unwrap();
        assert!(Journal::open_resume(&path).is_err());
        std::fs::write(&path, "").unwrap();
        assert!(Journal::open_resume(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod review_probe {
    use super::*;

    #[test]
    fn append_after_torn_tail_resume_keeps_journal_parseable() {
        let path = std::env::temp_dir().join(format!(
            "awg-journal-reviewprobe-{}.jsonl",
            std::process::id()
        ));
        {
            let mut j = Journal::create(&path, "cmd").unwrap();
            j.append(&tests::record("a", 1)).unwrap();
            j.append(&tests::record("b", 2)).unwrap();
        }
        // Crash mid-write of record "b": torn tail.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 17;
        std::fs::write(&path, &text[..keep]).unwrap();
        // Resume and append two new records (re-run of "b", then "c").
        {
            let (mut j, state) = Journal::open_resume(&path).unwrap();
            assert!(state.torn_tail);
            j.append(&tests::record("b", 2)).unwrap();
            j.append(&tests::record("c", 3)).unwrap();
        }
        // A second resume must still parse the journal.
        let result = Journal::open_resume(&path);
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        match result {
            Ok((_j, state)) => {
                assert_eq!(state.records.len(), 3, "file was:\n{contents}");
            }
            Err(e) => panic!("second resume failed: {e}\nfile was:\n{contents}"),
        }
    }
}
