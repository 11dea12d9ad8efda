//! The umbrella error type shared by the whole pipeline.

use bw_fault::CampaignError;
use bw_ir::frontend::FrontendError;
use bw_ir::VerifyError;

/// Everything that can go wrong between source text and campaign results.
///
/// [`crate::Blockwatch::compile`], [`crate::Blockwatch::from_module`] and
/// [`crate::CampaignRunner::run`] all return this type, so a full
/// compile-and-inject pipeline propagates through one `?` chain.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Compiling mini-language source failed (syntax or semantics).
    Frontend(FrontendError),
    /// A hand-built module failed SSA verification.
    Verify(VerifyError),
    /// A fault-injection campaign could not run.
    Campaign(CampaignError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Frontend(e) => write!(f, "front-end error: {e}"),
            Error::Verify(e) => write!(f, "IR verification error: {e}"),
            Error::Campaign(e) => write!(f, "campaign error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Frontend(e) => Some(e),
            Error::Verify(e) => Some(e),
            Error::Campaign(e) => Some(e),
        }
    }
}

impl From<FrontendError> for Error {
    fn from(e: FrontendError) -> Self {
        Error::Frontend(e)
    }
}

impl From<VerifyError> for Error {
    fn from(e: VerifyError) -> Self {
        Error::Verify(e)
    }
}

impl From<CampaignError> for Error {
    fn from(e: CampaignError) -> Self {
        Error::Campaign(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn wraps_campaign_errors_with_source() {
        let err = Error::from(CampaignError::NoThreads);
        assert!(err.to_string().contains("zero threads"));
        assert!(err.source().is_some());
    }
}
