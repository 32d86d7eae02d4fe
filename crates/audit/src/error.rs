//! Typed errors for the audit crate's fallible surface.
//!
//! The lint engine flags `Result<_, String>` in public signatures
//! (`result-string`), so the crate had to stop committing that sin
//! itself: every public fallible API returns [`AuditError`].

use std::fmt;

/// Why an audit pass could not run (distinct from *findings*, which are
/// the pass's successful output).
#[derive(Debug)]
pub enum AuditError {
    /// Filesystem access failed (path and the underlying error).
    Io { path: String, message: String },
    /// The committed `wire.lock` failed to parse.
    Config(String),
}

impl AuditError {
    pub fn io(path: impl Into<String>, err: impl fmt::Display) -> AuditError {
        AuditError::Io { path: path.into(), message: err.to_string() }
    }

    pub fn config(msg: impl Into<String>) -> AuditError {
        AuditError::Config(msg.into())
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Io { path, message } => write!(f, "{path}: {message}"),
            AuditError::Config(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for AuditError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_path_and_message() {
        let e = AuditError::io("wire.lock", "permission denied");
        assert_eq!(e.to_string(), "wire.lock: permission denied");
        let c = AuditError::config("wire.lock:3: bad header");
        assert_eq!(c.to_string(), "wire.lock:3: bad header");
    }
}
