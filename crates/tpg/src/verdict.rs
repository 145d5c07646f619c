//! Pass/fail outcome of a test session.

use std::fmt;

/// Outcome of comparing a session's responses against its golden run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// All responses matched expectations.
    Pass,
    /// Some responses mismatched.
    Fail {
        /// Number of mismatching response bits.
        mismatches: usize,
    },
}

impl Verdict {
    /// Whether the verdict is a pass.
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Pass)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Pass => f.write_str("pass"),
            Self::Fail { mismatches } => write!(f, "fail ({mismatches} mismatches)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Pass.to_string(), "pass");
        assert_eq!(
            Verdict::Fail { mismatches: 3 }.to_string(),
            "fail (3 mismatches)"
        );
    }
}
