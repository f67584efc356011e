//! Multi-channel device-memory (GDDR/HBM) timing model.
//!
//! Each channel is a bandwidth-limited server: an access occupies its channel
//! for `occupancy_cycles` (bandwidth) and completes after `access_latency`
//! from the moment the channel accepts it (latency). Lines interleave across
//! channels by address, as in the paper's 16-channel baseline.

use walksteal_sim_core::{Cycle, LineAddr};

/// Timing/geometry parameters of the [`Dram`] model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels; must be a power of two.
    pub channels: usize,
    /// Core cycles from channel acceptance to data return.
    pub access_latency: u64,
    /// Core cycles a single line transfer occupies its channel
    /// (the bandwidth term).
    pub occupancy_cycles: u64,
}

impl Default for DramConfig {
    /// The paper's baseline: 16 channels; ~220-cycle access; a 128-byte line
    /// occupies a channel for ~7 core cycles at 345.6 GB/s aggregate.
    fn default() -> Self {
        DramConfig {
            channels: 16,
            access_latency: 220,
            occupancy_cycles: 7,
        }
    }
}

/// A bandwidth- and latency-constrained multi-channel DRAM.
///
/// # Examples
///
/// ```
/// use walksteal_mem::{Dram, DramConfig};
/// use walksteal_sim_core::{Cycle, LineAddr};
///
/// let mut dram = Dram::new(DramConfig { channels: 1, access_latency: 100, occupancy_cycles: 10 });
/// // Back-to-back same-channel accesses queue behind each other.
/// assert_eq!(dram.access(LineAddr(0), Cycle(0)), 100);
/// assert_eq!(dram.access(LineAddr(0), Cycle(0)), 110);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    next_free: Vec<Cycle>,
}

impl Dram {
    /// Creates an idle DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is not a power of two or `occupancy_cycles` is 0.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        assert!(
            cfg.channels.is_power_of_two(),
            "channel count must be a power of two"
        );
        assert!(cfg.occupancy_cycles > 0, "occupancy must be positive");
        Dram {
            cfg,
            next_free: vec![Cycle::ZERO; cfg.channels],
        }
    }

    /// The channel servicing `line` (address-interleaved).
    #[must_use]
    pub fn channel_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.cfg.channels - 1)
    }

    /// Issues an access to `line` at cycle `now`; returns the total latency
    /// (queue wait + access latency) until data returns.
    pub fn access(&mut self, line: LineAddr, now: Cycle) -> u64 {
        let ch = self.channel_of(line);
        let start = self.next_free[ch].max(now);
        let wait = start - now;
        self.next_free[ch] = start + self.cfg.occupancy_cycles;
        wait + self.cfg.access_latency
    }

    /// The configured parameters.
    #[must_use]
    pub fn config(&self) -> DramConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_channel() -> Dram {
        Dram::new(DramConfig {
            channels: 1,
            access_latency: 100,
            occupancy_cycles: 10,
        })
    }

    #[test]
    fn idle_access_pays_base_latency() {
        let mut d = one_channel();
        assert_eq!(d.access(LineAddr(3), Cycle(50)), 100);
    }

    #[test]
    fn contended_channel_queues() {
        let mut d = one_channel();
        assert_eq!(d.access(LineAddr(0), Cycle(0)), 100);
        assert_eq!(d.access(LineAddr(0), Cycle(0)), 110);
        assert_eq!(d.access(LineAddr(0), Cycle(0)), 120);
    }

    #[test]
    fn channel_frees_over_time() {
        let mut d = one_channel();
        d.access(LineAddr(0), Cycle(0));
        // By cycle 10 the channel is free again: no queue wait.
        assert_eq!(d.access(LineAddr(0), Cycle(10)), 100);
    }

    #[test]
    fn lines_interleave_across_channels() {
        let mut d = Dram::new(DramConfig {
            channels: 4,
            access_latency: 100,
            occupancy_cycles: 10,
        });
        assert_eq!(d.channel_of(LineAddr(0)), 0);
        assert_eq!(d.channel_of(LineAddr(1)), 1);
        assert_eq!(d.channel_of(LineAddr(5)), 1);
        // Different channels don't contend.
        assert_eq!(d.access(LineAddr(0), Cycle(0)), 100);
        assert_eq!(d.access(LineAddr(1), Cycle(0)), 100);
    }

    #[test]
    fn partial_overlap_waits_only_the_remainder() {
        let mut d = one_channel();
        d.access(LineAddr(0), Cycle(0));
        // The channel frees at cycle 10: an access at 4 waits 6 cycles.
        assert_eq!(d.access(LineAddr(0), Cycle(4)), 106);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_channel_count_panics() {
        let _ = Dram::new(DramConfig {
            channels: 3,
            access_latency: 1,
            occupancy_cycles: 1,
        });
    }
}
