//! Identifiers for processes.

use std::fmt;

/// Identifier of a process in `Π = {0, …, n−1}`.
///
/// Matches the paper's process naming: processes are totally ordered by
/// their id, and several algorithms break ties by picking the process with
/// the *smallest* id (e.g. line 14 of Figure 3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcId(pub usize);

impl ProcId {
    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcId {
    fn from(v: usize) -> Self {
        ProcId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_id_ordering_matches_index() {
        assert!(ProcId(0) < ProcId(1));
        assert!(ProcId(3) > ProcId(2));
        assert_eq!(ProcId(5).index(), 5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ProcId(2).to_string(), "p2");
    }

    #[test]
    fn from_usize() {
        let p: ProcId = 7usize.into();
        assert_eq!(p, ProcId(7));
    }
}
