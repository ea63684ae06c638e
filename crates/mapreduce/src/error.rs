//! Error type shared by the runtime.

use std::fmt;

/// Errors surfaced by job execution or record (de)serialization.
#[derive(Debug)]
pub enum MrError {
    /// An I/O error from spill files or temporary directories.
    Io(std::io::Error),
    /// A record could not be decoded (truncated or corrupt frame).
    Corrupt(&'static str),
    /// A job was configured inconsistently (e.g. zero reduce tasks).
    Config(String),
    /// A worker thread panicked while running a task.
    TaskPanic(String),
    /// A task exhausted its retry budget: every attempt (panic or error)
    /// failed, so the job as a whole fails with the last attempt's cause.
    TaskFailed {
        /// Which phase the task belonged to (`"map"` or `"reduce"`).
        phase: &'static str,
        /// Task index within its phase (split index or partition).
        task: usize,
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The last attempt's failure.
        cause: Box<MrError>,
    },
    /// A CRC-guarded block failed verification on read. The retry layer
    /// treats this as a failed attempt whenever the producer can
    /// regenerate the artifact.
    ChecksumMismatch {
        /// The file (or `<mem>` for in-memory buffers) holding the block.
        file: String,
        /// Zero-based index of the failing block within the file.
        block: u64,
    },
    /// An index directory is partial: a file the manifest requires (or
    /// the manifest itself) is absent. Produced by an interrupted build
    /// that never published its manifest, or by pointing the server at a
    /// directory that is not an index. Refused at mount time so a
    /// half-written index is never served.
    IndexIncomplete {
        /// The index directory.
        dir: String,
        /// What is missing from it.
        missing: String,
    },
    /// A resume was requested against a checkpoint manifest written by a
    /// *different* job (fingerprint over method, params, input identity,
    /// codec and partition count disagrees). Resuming would silently mix
    /// task outputs from two jobs, so the stale manifest is refused.
    CheckpointMismatch {
        /// Fingerprint the current job derived from its own config.
        expected: String,
        /// What the on-disk manifest claims (fingerprint, or a
        /// description of the structural disagreement).
        found: String,
    },
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::Io(e) => write!(f, "i/o error: {e}"),
            MrError::Corrupt(what) => write!(f, "corrupt record: {what}"),
            MrError::Config(msg) => write!(f, "invalid job configuration: {msg}"),
            MrError::TaskPanic(msg) => write!(f, "task panicked: {msg}"),
            MrError::TaskFailed {
                phase,
                task,
                attempts,
                cause,
            } => write!(
                f,
                "{phase} task {task} failed after {attempts} attempt(s): {cause}"
            ),
            MrError::ChecksumMismatch { file, block } => {
                write!(f, "checksum mismatch in {file} at block {block}")
            }
            MrError::IndexIncomplete { dir, missing } => write!(
                f,
                "incomplete index at {dir}: missing {missing} (interrupted build, or not an \
                 index directory)"
            ),
            MrError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint manifest does not match this job (expected {expected}, found \
                 {found}); delete the checkpoint directory or drop --resume"
            ),
        }
    }
}

impl std::error::Error for MrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MrError::Io(e) => Some(e),
            MrError::TaskFailed { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

/// Unwraps an [`MrError`] carried inside an `io::Error` (see below), so
/// a checksum failure raised under an `io::Result` API stays typed.
impl From<std::io::Error> for MrError {
    fn from(e: std::io::Error) -> Self {
        e.downcast().unwrap_or_else(MrError::Io)
    }
}

/// For `io::Result` APIs: an I/O error passes through, any other error
/// travels as `InvalidData` carrying the [`MrError`].
impl From<MrError> for std::io::Error {
    fn from(e: MrError) -> Self {
        match e {
            MrError::Io(e) => e,
            e => std::io::Error::new(std::io::ErrorKind::InvalidData, e),
        }
    }
}

/// Convenient alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MrError>;
