//! The SM instruction-issue timeline.
//!
//! Each SM issues at most one (warp) instruction per cycle across all of its
//! resident warps. [`IssueServer`] models that bandwidth as a reservation
//! timeline: a warp wanting to execute a burst of `n` instructions starting
//! no earlier than `now` occupies the next `n` free issue slots. Memory
//! latency hiding emerges naturally — while one warp waits on memory, other
//! warps' bursts fill the timeline.

use walksteal_sim_core::Cycle;

/// A single-resource reservation timeline issuing one instruction per cycle.
///
/// # Examples
///
/// ```
/// use walksteal_gpu::IssueServer;
/// use walksteal_sim_core::Cycle;
///
/// let mut issue = IssueServer::new();
/// // Warp A issues 10 instructions at cycle 0 -> finishes at cycle 10.
/// assert_eq!(issue.reserve(Cycle(0), 10), Cycle(10));
/// // Warp B arrives at cycle 4 but must wait for the pipeline: 10 + 5.
/// assert_eq!(issue.reserve(Cycle(4), 5), Cycle(15));
/// // After a long idle gap there is no queuing.
/// assert_eq!(issue.reserve(Cycle(100), 1), Cycle(101));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IssueServer {
    next_free: Cycle,
}

impl IssueServer {
    /// Creates an idle issue server.
    #[must_use]
    pub fn new() -> Self {
        IssueServer::default()
    }

    /// Reserves `n_instructions` consecutive issue slots starting no earlier
    /// than `now`; returns the cycle at which the burst completes.
    pub fn reserve(&mut self, now: Cycle, n_instructions: u64) -> Cycle {
        let start = self.next_free.max(now);
        let end = start + n_instructions;
        self.next_free = end;
        end
    }

    /// The first cycle at which a new burst could start.
    #[must_use]
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_bursts() {
        let mut s = IssueServer::new();
        assert_eq!(s.reserve(Cycle(0), 3), Cycle(3));
        assert_eq!(s.reserve(Cycle(0), 3), Cycle(6));
        assert_eq!(s.reserve(Cycle(0), 3), Cycle(9));
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut s = IssueServer::new();
        s.reserve(Cycle(0), 2);
        assert_eq!(s.reserve(Cycle(50), 2), Cycle(52));
        assert_eq!(s.next_free(), Cycle(52));
    }

    #[test]
    fn zero_length_burst_is_free() {
        let mut s = IssueServer::new();
        assert_eq!(s.reserve(Cycle(5), 0), Cycle(5));
        assert_eq!(s.reserve(Cycle(5), 1), Cycle(6), "no slot was taken");
    }

    #[test]
    fn next_free_tracks_tail() {
        let mut s = IssueServer::new();
        s.reserve(Cycle(10), 4);
        assert_eq!(s.next_free(), Cycle(14));
    }
}
