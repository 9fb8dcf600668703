//! The workspace's typed error API.
//!
//! Every public fallible entry point — cache store opening,
//! golden/report rendering and the campaign runners — returns
//! `Result<_, CedarError>` instead of panicking or stringly-typed
//! errors. The variants are deliberately coarse: they partition
//! failures by *who must act* (the host's storage misbehaved, or the
//! reproduction itself broke an invariant).
//!
//! The enum lives in `cedar-obs` — the leaf crate every layer already
//! depends on — and is re-exported as `cedar_core::CedarError` (and from
//! the preludes), which is the canonical import path for tools.

/// A typed workspace error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CedarError {
    /// The content-addressed run cache could not be opened or written
    /// (root is a file, permissions, disk full at open time).
    CacheIo(String),
    /// The reproduction itself failed an invariant (a panicking
    /// experiment, an I/O failure rendering a report).
    Internal(String),
}

impl std::fmt::Display for CedarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CedarError::CacheIo(m) => write!(f, "run-cache I/O failure: {m}"),
            CedarError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for CedarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_message() {
        let e = CedarError::CacheIo("root is a file".into());
        assert_eq!(e.to_string(), "run-cache I/O failure: root is a file");
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(CedarError::Internal("boom".into()));
        assert!(e.to_string().contains("boom"));
    }
}
