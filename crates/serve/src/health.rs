//! Per-chip health tracking: the circuit breaker behind graceful degradation.
//!
//! Every dispatch verdict feeds a per-chip score: link-shaped retries are
//! cheap (signaling weather strikes any chip), SRAM-shaped retries cost more
//! (repeated uncorrectable detections on *one* chip smell like a failing
//! part), and an exhausted retry budget — the signature of a permanent
//! fault — costs the most. Clean requests pay the score back down, so a
//! chip that weathers a transient burst recovers its standing. When the
//! score crosses [`HealthConfig::trip_score`] the breaker trips and the
//! chip is quarantined: the server stops offering it work and drains the
//! queue to the healthy rest.
//!
//! Quarantine is deliberately *sticky* (no automatic probation): the chaos
//! model draws faults independently per dispatch, so a tripped breaker
//! means the chip kept drawing them — exactly the part an operator should
//! pull. The server still fails open if *every* chip trips: serving
//! degraded beats serving nothing, and correctness never depends on the
//! breaker (answers are bit-identical to the oracle or absent).

use tsp_nn::resilient::TransientKind;

/// Score added per link-shaped retry (transient signaling weather).
const LINK_PENALTY: u32 = 1;
/// Score added per SRAM-shaped retry (uncorrectable ECC detection).
const SRAM_PENALTY: u32 = 3;
/// Score added per request that exhausted its retry budget or died on a
/// non-transient error — the permanent-fault signature.
const EXHAUST_PENALTY: u32 = 8;
/// Score subtracted per request that completed without retries.
const SUCCESS_REWARD: u32 = 1;

/// The per-chip circuit breaker's threshold. The penalties and the reward
/// it is weighed against are fixed: one link retry 1, one SRAM retry 3, one
/// exhausted request 8, one clean request −1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthConfig {
    /// Quarantine the chip once its score reaches this value.
    pub trip_score: u32,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        // One exhausted request trips the breaker outright; short of that it
        // takes a run of SRAM detections outpacing successes.
        HealthConfig {
            trip_score: EXHAUST_PENALTY,
        }
    }
}

/// One chip's standing with the circuit breaker.
///
/// The score saturates at zero from below and latches once tripped: a chip
/// never un-quarantines itself (see the module docs for why).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipHealth {
    config: HealthConfig,
    score: u32,
    tripped: bool,
}

impl ChipHealth {
    /// A healthy chip under `config`.
    #[must_use]
    pub fn new(config: HealthConfig) -> ChipHealth {
        ChipHealth {
            config,
            score: 0,
            tripped: false,
        }
    }

    /// Current score (diagnostic; the decision is [`ChipHealth::tripped`]).
    #[must_use]
    pub fn score(&self) -> u32 {
        self.score
    }

    /// Has the breaker tripped? Latches true.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    fn charge(&mut self, penalty: u32) {
        self.score = self.score.saturating_add(penalty);
        if self.score >= self.config.trip_score {
            self.tripped = true;
        }
    }

    /// A request completed on this chip without a single retry.
    pub fn record_success(&mut self) {
        self.score = self.score.saturating_sub(SUCCESS_REWARD);
    }

    /// One retry-triggering transient failure of the given site class.
    pub fn record_retry(&mut self, kind: TransientKind) {
        self.charge(if kind.is_link() {
            LINK_PENALTY
        } else {
            SRAM_PENALTY
        });
    }

    /// A request exhausted its retry budget (or died on a non-transient
    /// error) on this chip.
    pub fn record_exhausted(&mut self) {
        self.charge(EXHAUST_PENALTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustion_trips_immediately_at_defaults() {
        let mut h = ChipHealth::new(HealthConfig::default());
        assert!(!h.tripped());
        h.record_exhausted();
        assert!(h.tripped(), "permanent-fault signature quarantines");
    }

    #[test]
    fn successes_pay_down_transient_weather() {
        let mut h = ChipHealth::new(HealthConfig::default());
        for _ in 0..4 {
            h.record_retry(TransientKind::LinkRetryExhausted);
            h.record_success();
        }
        assert!(!h.tripped(), "balanced weather never trips: {}", h.score());
        assert_eq!(h.score(), 0);
    }

    #[test]
    fn sram_rot_trips_and_latches() {
        let mut h = ChipHealth::new(HealthConfig::default());
        for _ in 0..3 {
            h.record_retry(TransientKind::Ecc);
        }
        assert!(h.tripped(), "score {}", h.score());
        for _ in 0..100 {
            h.record_success();
        }
        assert!(h.tripped(), "quarantine latches");
    }
}
