//! The workspace's typed error API.
//!
//! Every public fallible entry point — configuration validation, cache
//! store opening, golden/report rendering and the campaign runners —
//! returns `Result<_, CedarError>` instead of panicking or
//! stringly-typed errors. The variants are deliberately coarse: they
//! partition failures by *who must act* (the caller sent a structurally
//! invalid configuration, the host's storage misbehaved, or the
//! reproduction itself broke an invariant).
//!
//! The enum lives in `cedar-obs` — the leaf crate every layer already
//! depends on — and is re-exported as `cedar_core::CedarError` (and from
//! the preludes), which is the canonical import path for tools.

/// A typed workspace error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CedarError {
    /// A configuration or workload model violates a structural
    /// invariant (missing array reference, zero-iteration loop,
    /// zero event bound).
    ConfigInvalid(String),
    /// The content-addressed run cache could not be opened or written
    /// (root is a file, permissions, disk full at open time).
    CacheIo(String),
    /// The reproduction itself failed an invariant (a panicking
    /// experiment, an I/O failure rendering a report).
    Internal(String),
    /// A `cedar-check` invariant oracle found a measurement that breaks
    /// one of the reproduction's claimed laws (conservation, scheduler
    /// parity, fault-attribution monotonicity, …). Carries the oracle
    /// name so tooling can route the violation without parsing the
    /// message.
    CheckViolation {
        /// The violated oracle's registry name (e.g. `"conservation"`).
        oracle: String,
        /// Human-readable description of what broke.
        detail: String,
    },
}

impl std::fmt::Display for CedarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CedarError::ConfigInvalid(m) => write!(f, "invalid configuration: {m}"),
            CedarError::CacheIo(m) => write!(f, "run-cache I/O failure: {m}"),
            CedarError::Internal(m) => write!(f, "internal error: {m}"),
            CedarError::CheckViolation { oracle, detail } => {
                write!(f, "check oracle `{oracle}` violated: {detail}")
            }
        }
    }
}

impl std::error::Error for CedarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_message() {
        let e = CedarError::ConfigInvalid("loop `L1` has zero iterations".into());
        assert_eq!(
            e.to_string(),
            "invalid configuration: loop `L1` has zero iterations"
        );
        let e = CedarError::CheckViolation {
            oracle: "conservation".into(),
            detail: "bodies 3 != 4".into(),
        };
        assert_eq!(
            e.to_string(),
            "check oracle `conservation` violated: bodies 3 != 4"
        );
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(CedarError::Internal("boom".into()));
        assert!(e.to_string().contains("boom"));
    }
}
